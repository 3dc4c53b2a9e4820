"""End-to-end deployments: handshakes over the fabric, rules, resilience."""

from collections import Counter
from dataclasses import replace
from random import Random

import pytest

from icnsim import wire
from icnsim.bootstrap import BootstrapState
from icnsim.deploy import CableError, Deployment, EndpointError, PacketOutCmd
from icnsim.fabric import IcnPacket, LinkChange, PacketIn, SwitchAttached
from icnsim.fid import BitVector, fid_or
from icnsim.simnet import LimitExceeded, NeverCompleted, Simulator
from icnsim.topology import TM_NID, LinkEvent, LinkEventKind, TopologyGraph
from icnsim.topospec import (Defaults, SpecError, TopoLink, TopoNode, TopologySpec,
                             generate_random, parse_spec)
from icnsim.wire import ResourceOffer, decode


def chain_spec(switches, hosts=1, delay_ms=0.0, defaults=None, seed=11, m=256, k=5):
    """tm - s1 - ... - sN with hosts hanging off the last switch."""
    nodes = [TopoNode("tm", "tm")]
    links = []
    prev = "tm"
    for i in range(1, switches + 1):
        nodes.append(TopoNode(f"s{i}", "switch"))
        links.append(TopoLink(prev, f"s{i}", delay_ms))
        prev = f"s{i}"
    for j in range(1, hosts + 1):
        nodes.append(TopoNode(f"h{j}", "host"))
        links.append(TopoLink(f"h{j}", prev, delay_ms))
    return TopologySpec(m=m, k=k, defaults=defaults or Defaults(),
                        nodes=nodes, links=links, seed=seed)


ZERO_COST = Defaults(tm_service_ms=0.0, tm_alloc_per_lid_ms=0.0)
TRACE_HOPS = 100_000  # above the hop count of every traced test here


def failed_host_net():
    """tm - s1 - h1, bootstrapped with every frame to h1 dropped: h1 ends FAILED."""
    spec = TopologySpec(
        nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("h1", "host")],
        links=[TopoLink("tm", "s1", 0.2), TopoLink("h1", "s1", 0.2)], seed=53)
    net = Deployment(spec)
    net.drop_filter = lambda src, dst, packet: dst == "h1"
    net.run_bootstrap()
    return net


def drop_tmfid_updates_to(net, host):
    """A drop filter that loses each TM Update carrying a TMFID on its way to ``host``."""
    def drop(src, dst, packet):
        if dst != host or packet.payload[:1] != bytes([wire.VERSION]):
            return False
        msg = wire.decode(packet.payload, net.graph.params)
        return isinstance(msg, wire.Update) and msg.tmfid is not None
    return drop


class TestChainBootstrap:
    def test_minimal_chain_completes(self):
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()
        assert net.all_done()
        assert not net.failures

    def test_two_rules_installed_per_attachment(self):
        net = Deployment(chain_spec(2, hosts=0))
        net.run_bootstrap()
        # seed switch: one rule towards the TM; s2 attachment: one per switch
        def count(name):
            return len(net.switches[name].table)
        assert count("s1") == 2  # tm-facing rule + rule towards s2
        assert count("s2") == 1

    def test_chain_rule_count_invariant(self):
        # 5 switches: 2(s-1) = 8 rules for the four inter-switch connections,
        # plus exactly one seed rule for the TM attachment.
        net = Deployment(chain_spec(5, hosts=0))
        net.run_bootstrap()
        switch_nids = set(net.controller.enabled.values())
        inter_switch_lids = {link.lid for link in net.graph.links.values()
                             if link.src in switch_nids and link.dst in switch_nids}
        total, inter = 0, 0
        for sw in net.switches.values():
            for rule in sw.table.snapshot():
                total += 1
                if rule.value.value in inter_switch_lids:
                    inter += 1
        assert inter == 2 * (5 - 1)
        assert total == 2 * (5 - 1) + 1

    def test_host_rule_installed_on_access_switch(self):
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()
        h_nid = net.nid_of("h1")
        s_nid = net.controller.enabled["s1"]
        down_lid = net.graph.links[(s_nid, h_nid)].lid
        assert any(r.value.value == down_lid for r in net.switches["s1"].table.snapshot())

    def test_host_config_matches_graph(self):
        net = Deployment(chain_spec(3, hosts=2))
        net.run_bootstrap()
        for name, host in net.hosts.items():
            nid = host.config.nid
            record = net.graph.nodes[nid]
            assert host.config.tmfid == record.tmfid
            assert host.config.ilid == record.ilid
            up_lid = net.graph.links[(nid, host.fsm.attach_nid)].lid
            assert host.config.link_lids[host.fsm.attach_nid] == up_lid

    def test_tmfid_equals_or_of_managed_path(self):
        net = Deployment(chain_spec(4, hosts=1))
        net.run_bootstrap()
        nid = net.nid_of("h1")
        path = net.graph.shortest_path(nid, TM_NID)
        assert net.graph.nodes[nid].tmfid == fid_or([BitVector(256, l.lid) for l in path]).value
        assert path[-1].dst == TM_NID


    def test_bootstrap_sends_the_controller_only_discoveries(self):
        net = Deployment(chain_spec(2, hosts=3, delay_ms=0.2))
        net.run_bootstrap()
        assert net.all_done()
        assert net.controller.packet_in_count == 3  # one discovery per host
        assert net.controller.audit_drops == 0


class TestZeroDelayTiming:
    def test_span_equals_discovery_wait_exactly(self):
        net = Deployment(chain_spec(1, hosts=1, delay_ms=0.0, defaults=ZERO_COST))
        net.run_bootstrap()
        span = net.report().span("bootstrap:h1")
        assert span.duration_us == net.timers.discovery_wait_us

    def test_hop_count_does_not_change_span(self):
        durations = set()
        for switches in (1, 4, 9):
            net = Deployment(chain_spec(switches, hosts=1, delay_ms=0.0))
            net.run_bootstrap()
            durations.add(net.report().span("bootstrap:h1").duration_us)
        assert len(durations) == 1


class TestLossyRuns:
    def test_lost_resource_offer_recovers(self):
        net = Deployment(chain_spec(1, hosts=1))
        dropped = []

        def drop_first_offer(src, dst, packet):
            if dropped:
                return False
            try:
                msg = decode(packet.payload, net.params)
            except Exception:
                return False
            if isinstance(msg, ResourceOffer):
                dropped.append(msg)
                return True
            return False

        net.drop_filter = drop_first_offer
        net.run_bootstrap()
        assert dropped, "filter never saw a ResourceOffer"
        assert net.hosts["h1"].fsm.state == BootstrapState.DONE
        # exactly-once commit: a single committed record for the host
        assert net.nid_of("h1") in net.graph.nodes
        assert net.report().span("bootstrap:h1").duration_us > net.timers.request_timeout_us

    def test_link_down_at_failed_host_not_relayed(self):
        # h1 never gets a NID, so the controller cannot report the h1-s1
        # link to the TM; it drops the event instead of raising out of the
        # event loop.
        net = failed_host_net()
        assert net.hosts["h1"].fsm.state == BootstrapState.FAILED
        # The FAILED host's discovery entry is dropped, as a DONE host's is.
        assert net.controller.pending_discovery == {}
        before = net.graph.dump()
        net.fail_link("h1", "s1")
        net.run_until_idle()
        assert net.graph.dump() == before

    def test_silent_tm_fails_after_retries(self):
        net = Deployment(chain_spec(1, hosts=1))
        net.drop_filter = lambda src, dst, packet: dst == "tm" or src == "tm"
        net.run_bootstrap()
        assert net.hosts["h1"].fsm.state == BootstrapState.FAILED
        with pytest.raises(NeverCompleted):
            net.report().span("bootstrap:h1")
        assert "h1" in net.failures


class TestIcnNodeChain:
    """Hosts attached behind other hosts: pure ICN forwarding, no switch."""

    def spec(self):
        return TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"),
                   TopoNode("h1", "host"), TopoNode("h2", "host")],
            links=[TopoLink("tm", "s1", 0.2), TopoLink("h1", "s1", 0.2),
                   TopoLink("h2", "h1", 0.2)],
            seed=31,
        )

    def test_host_behind_host_bootstraps(self):
        net = Deployment(self.spec())
        net.run_bootstrap()
        assert net.all_done()
        h1, h2 = net.hosts["h1"], net.hosts["h2"]
        assert h2.fsm.attach_nid == h1.config.nid
        # h1 learned the downstream LID towards h2 and can place the port
        assert h1.config.link_lids[h2.config.nid] == net.graph.links[
            (h1.config.nid, h2.config.nid)].lid
        assert h1.nid_port[h2.config.nid] is not None

    def test_probe_from_nested_host_reaches_tm(self):
        net = Deployment(self.spec())
        net.run_bootstrap()
        trace = net.inject_probe("h2")
        net.run_until_idle()
        assert net.tm_name in net.consumed.get(trace, [])

    @pytest.mark.parametrize("hop_limit, emitted", [
        (0, [("h2", "h1", 0)]),
        (1, [("h2", "h1", 1), ("h1", "s1", 0)]),
        (5, [("h2", "h1", 5), ("h1", "s1", 4), ("s1", "tm", 3)]),
    ])
    def test_transit_host_forwards_with_one_hop_less(self, monkeypatch, hop_limit, emitted):
        # h2's probe crosses h1; h1 forwards it with one hop less, and
        # nothing once none is left.
        net = Deployment(self.spec())
        net.run_bootstrap()
        sent = []
        emit = net.emit

        def recorded(node, port, packet, hops):
            sent.append((node.name, node.ports[port].dst, hops))
            emit(node, port, packet, hops)

        monkeypatch.setattr(net, "emit", recorded)
        net.hop_limit = hop_limit
        trace = net.inject_probe("h2")
        net.run_until_idle()
        assert sent == emitted
        assert (net.tm_name in net.consumed.get(trace, [])) == (hop_limit == 5)

    def answers_to_discovery(self, net, monkeypatch, name, neighbour):
        """What ``name`` sends back when a DiscoveryRequest reaches it from ``neighbour``."""
        sent = []
        request = net.control_packet(wire.DiscoveryRequest(77))
        port = net.port_to[name][neighbour]
        with monkeypatch.context() as patch:
            patch.setattr(net, "emit", lambda node, port, packet, hops: sent.append(
                (node.name, node.ports[port].dst, decode(packet.payload, net.params))))
            net.sim.schedule(0, net.nodes[name].handler, (request, port, net.hop_limit))
            net.run_until_idle()
        return sent

    def test_tm_and_done_host_answer_a_discovery(self, monkeypatch):
        net = Deployment(self.spec())
        assert self.answers_to_discovery(net, monkeypatch, "h1", "h2") == []  # h1 is INIT
        assert net.hosts["h1"].fsm.state == BootstrapState.INIT
        net.run_bootstrap()
        h1 = net.hosts["h1"].config
        assert self.answers_to_discovery(net, monkeypatch, "h1", "h2") == [
            ("h1", "h2", wire.DiscoveryOffer(77, h1.nid, h1.tmfid))]
        assert self.answers_to_discovery(net, monkeypatch, "tm", "s1") == [
            ("tm", "s1", wire.DiscoveryOffer(77, TM_NID, 0))]

    def test_done_host_without_a_tmfid_stays_silent(self, monkeypatch):
        net = Deployment(self.spec())
        net.drop_filter = drop_tmfid_updates_to(net, "h1")
        net.run_bootstrap()
        assert net.hosts["h1"].fsm.state == BootstrapState.DONE
        assert net.hosts["h1"].config.tmfid is None
        # h1 had no TM path to offer h2, whose only neighbour it is.
        assert net.hosts["h2"].fsm.state == BootstrapState.FAILED
        assert self.answers_to_discovery(net, monkeypatch, "h1", "h2") == []

    def test_direct_tm_attachment(self):
        spec = TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("h1", "host")],
            links=[TopoLink("tm", "h1", 0.2)], seed=37)
        net = Deployment(spec)
        net.run_bootstrap()
        host = net.hosts["h1"]
        assert host.fsm.state == BootstrapState.DONE
        assert host.fsm.attach_nid == TM_NID
        # the responder was the TM itself: its offer carried the zero TMFID
        assert host.config.tmfid == net.graph.nodes[host.config.nid].tmfid
        trace = net.inject_probe("h1")
        net.run_until_idle()
        assert net.tm_name in net.consumed.get(trace, [])

    def test_host_on_tm_and_switch_links(self):
        # h1 attaches to the TM directly; its link to s1 is reported later,
        # so the controller learns h1's name from that link event alone, and
        # needs it to bind s1's rule towards h1.  h1's discovery reached s1
        # as a PacketIn, but no attach rule takes its entry: h1 finishing must.
        spec = TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("h1", "host")],
            links=[TopoLink("tm", "s1", 0.2), TopoLink("h1", "tm", 0.2),
                   TopoLink("h1", "s1", 0.2)],
            seed=39)
        net = Deployment(spec, trace_hops=TRACE_HOPS)
        report = net.run_bootstrap()
        assert set(report.final_states.values()) <= {"TM", "DONE", "ENABLED"}
        h1, s1 = net.nid_of("h1"), net.nid_of("s1")
        assert net.hosts["h1"].fsm.attach_nid == TM_NID
        assert net.controller.pending_discovery == {}
        net.fail_link("h1", "tm")
        net.run_until_idle()
        record = net.graph.nodes[h1]
        assert [l.key() for l in net.graph.shortest_path(h1, TM_NID)] == [(h1, s1), (s1, TM_NID)]
        assert net.hosts["h1"].config.tmfid == record.tmfid
        # The repair's self-Update must not overwrite the LID towards the TM.
        assert net.hosts["h1"].config.link_lids == {
            TM_NID: net.graph.down_links[(h1, TM_NID)].lid, s1: net.graph.links[(h1, s1)].lid}
        trace = net.inject_data("tm", "h1")
        net.run_until_idle()
        assert net.consumed.get(trace) == ["h1"]
        assert net.traces[trace] == [("tm", "s1"), ("s1", "h1")]
        traces = [net.inject_probe("h1"), net.inject_data("h1", "tm")]
        net.run_until_idle()
        assert [net.consumed.get(t) for t in traces] == [["tm"], ["tm"]]


class TestForwardAfterDelivery:
    """A delivered packet goes on only over a link its FID holds, never back."""

    def counted(self, spec):
        net = Deployment(spec)
        net.run_bootstrap()
        assert net.all_done()
        emitted = []
        net.drop_filter = lambda src, dst, packet: emitted.append((src, dst))  # drops none
        return net, emitted

    def test_one_cable_endpoint_adds_no_emission(self, monkeypatch):
        # h2 and the TM each have one cable, the arrival link: no forward scan.
        net, emitted = self.counted(chain_spec(1, hosts=2))
        scans = []
        for node in (net.hosts["h2"], net.tm):
            monkeypatch.setattr(node, "send", lambda *args, name=node.name: scans.append(name))
        traces = [net.inject_data("h1", "h2"), net.inject_data("h1", "tm")]
        net.run_until_idle()
        assert [net.consumed.get(t) for t in traces] == [["h2"], ["tm"]]
        assert emitted == [("h1", "s1"), ("h1", "s1"), ("s1", "h2"), ("s1", "tm")]
        assert scans == []

    def test_two_cable_host_forwards_over_its_other_link(self):
        # tm - s1 - h1 - h2: one FID for h1 and h2 is consumed by h1 and goes on to h2.
        net, emitted = self.counted(TestIcnNodeChain().spec())
        h1, h2 = net.nid_of("h1"), net.nid_of("h2")
        fid = net.graph.data_fid(TM_NID, h1) | net.graph.data_fid(TM_NID, h2)
        packet = IcnPacket(fid, b"DATA", trace_id=net.next_trace())
        net.tm.send(packet, net.hop_limit)
        net.run_until_idle()
        assert net.consumed.get(packet.trace_id) == ["h1", "h2"]
        assert emitted == [("tm", "s1"), ("s1", "h1"), ("h1", "h2")]


class TestRegisteredHandlers:
    """Every event is scheduled for a handler as registered, so a wrapper
    that ``Simulator.register`` puts around it (as the benchmark's tracer
    does) sees every one: fabric hops, control events and timers alike."""

    def flapped(self):
        spec = generate_random(6, 9, 4, 3)
        net = Deployment(spec)
        net.run_bootstrap()
        assert net.all_done()
        for link in [l for l in spec.links if l.a[0] == l.b[0] == "s"][:3]:
            net.fail_link(link.a, link.b)
            net.run_until_idle()
            net.restore_link(link.a, link.b)
            net.run_until_idle()
        return net

    def test_wrapped_handlers_receive_every_control_event(self, monkeypatch):
        received, scheduled = [], []
        register, schedule = Simulator.register, Simulator.schedule

        def wrapping(sim, target, handler):
            def wrapped(event):
                received.append((target, event))
                handler(event)
            register(sim, target, wrapped)

        def recording(sim, *args):
            scheduled.append(args[-1])
            schedule(sim, *args)

        monkeypatch.setattr(Simulator, "register", wrapping)
        monkeypatch.setattr(Simulator, "schedule", recording)
        net = self.flapped()
        monkeypatch.undo()
        assert Counter(map(id, scheduled)) == Counter(id(e) for _, e in received)
        to = lambda kind: {t for t, e in received if type(e) is kind}
        nodes = {f"node:{n}" for n in [net.tm_name, *net.switches, *net.hosts]}
        assert "node:tm" in to(tuple) <= nodes
        assert to(bytes) == {"node:tm", "ctl"}  # ctl frames, filed as their bytes
        assert to(PacketIn) == to(SwitchAttached) == to(LinkChange) == {"ctl"}
        assert to(list) == {"node:tm"}  # the actions of each message the TM served
        assert to(PacketOutCmd) and to(PacketOutCmd) <= {f"node:{s}" for s in net.switches}
        assert to(int) == {f"node:{h}" for h in net.hosts}  # a timer: the token its FSM armed
        assert to(type(None)) == {"orch"}  # the orchestrator's tick
        plain = self.flapped()
        assert net.report().to_text() == plain.report().to_text()
        assert net.graph.dump() == plain.graph.dump()


class TestMultiHoming:
    def test_host_on_two_switches_attaches(self):
        # Both switches see h1's discovery; the rule on the one h1 selects
        # must still find its port, and h1's discovery entry is drained.
        spec = TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("s2", "switch"),
                   TopoNode("h1", "host")],
            links=[TopoLink("tm", "s1", 0.2), TopoLink("s1", "s2", 0.2),
                   TopoLink("h1", "s1", 0.2), TopoLink("h1", "s2", 0.3)])
        for seed in range(20):
            net = Deployment(spec, seed=seed)
            net.run_bootstrap()
            assert net.all_done(), seed
            assert net.controller.pending_discovery == {}, seed
            trace = net.inject_probe("h1")
            net.run_until_idle()
            assert net.consumed.get(trace) == ["tm"], seed

    def test_random_multi_homed_fabrics_converge(self):
        # Hosts with a second switch link or a TM link: each learns every
        # link the TM adds, so it forwards what the graph routes through it.
        lost = stale = 0
        for seed in range(30):
            spec = generate_random(10, 14, 8, seed, delay_ms=0.2)
            rng = Random(seed)
            for i in range(1, 9):
                host = f"h{i}"
                access = next(l.b for l in spec.links if l.a == host)
                if rng.random() < 0.15:
                    spec.links.append(TopoLink(host, "tm", 0.3))
                if rng.random() < 0.3:
                    other = rng.choice([f"s{j}" for j in range(1, 11) if f"s{j}" != access])
                    spec.links.append(TopoLink(host, other, 0.3))
            net = Deployment(spec)
            net.run_bootstrap()
            assert net.all_done(), seed
            hosts = sorted(net.hosts)
            for a, b in rng.sample([(l.a, l.b) for l in spec.links if l.a != "tm"], 6):
                net.fail_link(a, b)
                net.run_until_idle()
                net.restore_link(a, b)
                net.run_until_idle()
            stale += sum(net.hosts[h].config.tmfid != net.graph.nodes[net.nid_of(h)].tmfid
                         for h in hosts)
            sends = [(net.inject_probe(h), "tm") for h in hosts]
            sends += [(net.inject_data(a, b), b)
                      for a, b in (rng.sample(hosts + ["tm"], 2) for _ in range(8))]
            net.run_until_idle()
            lost += sum(dst not in net.consumed.get(t, ()) for t, dst in sends)
        assert (stale, lost) == (0, 0)


class TestLinkFlap:
    def diamond(self):
        return TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("s2", "switch"),
                   TopoNode("s3", "switch"), TopoNode("h1", "host")],
            links=[TopoLink("tm", "s1", 0.5), TopoLink("tm", "s2", 0.5),
                   TopoLink("s1", "s3", 0.5), TopoLink("s2", "s3", 0.5),
                   TopoLink("h1", "s3", 0.5)],
            seed=41,
        )

    def test_flap_restores_tables_exactly(self):
        net = Deployment(self.diamond())
        net.run_bootstrap()
        before = {n: net.switches[n].table.snapshot() for n in net.switches}
        net.fail_link("s1", "s3")
        net.run_until_idle()
        after_down = {n: net.switches[n].table.snapshot() for n in net.switches}
        assert after_down != before  # failed-link rules removed
        net.restore_link("s1", "s3")
        net.run_until_idle()
        after_up = {n: net.switches[n].table.snapshot() for n in net.switches}
        assert after_up == before

    @pytest.mark.parametrize("a,b", [("s1", "s3"), ("s3", "s1")])
    def test_repair_update_reaches_host(self, a, b):
        # The controller reports the failure as one REMOVE of the cable,
        # named in the order given; the repair Update must arrive either way.
        net = Deployment(self.diamond())
        net.run_bootstrap()
        old_tmfid = net.hosts["h1"].config.tmfid
        net.fail_link(a, b)
        net.run_until_idle()
        new_tmfid = net.hosts["h1"].config.tmfid
        assert new_tmfid != old_tmfid
        assert new_tmfid == net.graph.nodes[net.nid_of("h1")].tmfid

    @pytest.mark.parametrize("upward", [True, False])
    def test_cable_event_reroutes_at_once(self, upward):
        # A link event that reaches the TM alone, with no physical change,
        # named from either end: one REMOVE takes the whole s1 - s3 cable out
        # of the TM's paths and one ADD puts it back.
        net = Deployment(self.diamond())
        net.run_bootstrap()
        s1, s3, h1 = net.nid_of("s1"), net.nid_of("s3"), net.nid_of("h1")
        assert net.graph._next[s3] == s1
        key = (s3, s1) if upward else (s1, s3)
        old_tmfid = net.hosts["h1"].config.tmfid

        def probes_reach_the_tm():
            traces = [net.inject_probe(name) for name in sorted(net.hosts)]
            net.run_until_idle()
            return all(net.consumed.get(trace) == ["tm"] for trace in traces)

        for kind, rerouted in ((LinkEventKind.REMOVE, True), (LinkEventKind.ADD, False)):
            net.ctl_send(LinkEvent(kind, *key, net.link_delay_ms("s1", "s3")))
            net.run_until_idle()
            tmfid = net.hosts["h1"].config.tmfid
            assert tmfid == net.graph.nodes[h1].tmfid
            assert (tmfid != old_tmfid) == rerouted
            assert (net.graph._next[s3] == s1) != rerouted
            assert probes_reach_the_tm()
            assert set(net.graph.down_links) == ({key, key[::-1]} if rerouted else set())
        assert net.graph.lid_registry == net.graph.live_lids()

    def test_data_path_follows_a_flap(self):
        # A square s1-s2-s4-s3 with h1 on s1 and h2 on s4: h1's data to h2
        # runs over s2 (the smaller NID) and detours over s3 while s2-s4 is down.
        spec = TopologySpec(
            nodes=[TopoNode(n, "tm" if n == "tm" else "switch" if n[0] == "s" else "host")
                   for n in ("tm", "s1", "s2", "s3", "s4", "h1", "h2")],
            links=[TopoLink(a, b, 0.5) for a, b in (
                ("tm", "s1"), ("s1", "s2"), ("s1", "s3"), ("s2", "s4"), ("s3", "s4"),
                ("h1", "s1"), ("h2", "s4"))],
            seed=53)
        net = Deployment(spec, trace_hops=TRACE_HOPS)
        net.run_bootstrap()
        assert net.all_done()

        def send():
            trace = net.inject_data("h1", "h2")
            net.run_until_idle()
            assert net.consumed.get(trace) == ["h2"]
            return net.traces[trace]

        before = send()
        assert ("s2", "s4") in before
        net.fail_link("s2", "s4")
        net.run_until_idle()
        during = send()
        assert not any({src, dst} == {"s2", "s4"} for src, dst in during)
        assert ("s3", "s4") in during
        net.restore_link("s2", "s4")
        net.run_until_idle()
        assert send() == before

    def test_remove_unmanaged_link_no_repair_traffic(self):
        net = Deployment(self.diamond())
        net.run_bootstrap()
        tmfid = net.hosts["h1"].config.tmfid
        # h1 routes via s1 (committed first); the s2 route is idle
        net.fail_link("s2", "s3")
        net.run_until_idle()
        assert net.hosts["h1"].config.tmfid == tmfid


class TestExtraLinks:
    def test_mesh_links_get_lids_and_rules(self):
        spec = TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("s2", "switch"),
                   TopoNode("s3", "switch")],
            links=[TopoLink("tm", "s1", 0.5), TopoLink("s1", "s2", 0.5),
                   TopoLink("s1", "s3", 0.5), TopoLink("s2", "s3", 0.5)],
            seed=43,
        )
        net = Deployment(spec)
        net.run_bootstrap()
        s2, s3 = net.controller.enabled["s2"], net.controller.enabled["s3"]
        assert (s2, s3) in net.graph.links and (s3, s2) in net.graph.links
        lid_23 = net.graph.links[(s2, s3)].lid
        assert any(r.value.value == lid_23 for r in net.switches["s2"].table.snapshot())

    def test_every_spec_pair_up_once_with_its_delay(self):
        # A mesh with a second TM link and a multi-homed host; every link
        # has its own delay.
        names = ["tm", "s1", "s2", "s3", "s4", "h1", "h2"]
        links = [("tm", "s1"), ("s1", "s2"), ("s2", "s3"), ("s1", "s3"), ("s3", "s4"),
                 ("tm", "s4"), ("h1", "s2"), ("h1", "s4"), ("h2", "s3"), ("s2", "s4")]
        spec = TopologySpec(
            nodes=[TopoNode(n, "tm" if n == "tm" else "switch" if n[0] == "s" else "host")
                   for n in names],
            links=[TopoLink(a, b, 0.1 * (i + 1)) for i, (a, b) in enumerate(links)],
            seed=47,
        )
        net = Deployment(spec)
        added = []
        on_link_event = net.tm.engine.on_link_event

        def record(event):
            added.append((event.kind.name, event.src, event.dst))
            return on_link_event(event)

        net.tm.engine.on_link_event = record
        net.run_bootstrap()
        assert net.all_done()
        for link in spec.links:
            a, b = net.nid_of(link.a), net.nid_of(link.b)
            for key in ((a, b), (b, a)):
                assert net.graph.links[key].delay_ms == pytest.approx(link.delay_ms)
        # Each node's handshake covers one pair; the others are reported
        # once, as one ADD of the cable.
        uncovered = len(spec.links) - (len(spec.nodes) - 1)
        assert len(added) == uncovered
        assert len(set(added)) == len(added)
        assert all(kind == "ADD" for kind, _, _ in added)


def test_report_final_states():
    net = Deployment(chain_spec(1, hosts=1))
    report = net.run_bootstrap()
    assert report.final_states["tm"] == "TM"
    assert report.final_states["s1"] == "ENABLED"
    assert report.final_states["h1"] == "DONE"


def test_delay_beyond_the_link_event_field_rejected():
    # A LinkEvent carries the delay as a u32 count of microseconds.
    spec = chain_spec(1, hosts=1, delay_ms=5e6)
    with pytest.raises(SpecError, match=r"links\[0\]\.delay_ms"):
        Deployment(spec)
    spec.links[0] = TopoLink("tm", "s1", wire.MAX_DELAY_MS)
    spec.links[1] = TopoLink("h1", "s1", wire.MAX_DELAY_MS)
    Deployment(spec)


@pytest.mark.parametrize("name, bad, allowed", [
    ("discovery_wait_ms", 0.0, 0.001),
    ("request_timeout_ms", -5.0, 0.001),
    ("max_retries", 0, 1),
    ("tm_service_ms", -1.0, 0.0),
    ("tm_alloc_per_lid_ms", -0.1, 0.0),
    ("control_delay_ms", -0.5, 0.0),
    ("hop_limit", 0, 1),
])
def test_default_outside_the_schema_bound_rejected(name, bad, allowed):
    # A spec built in Python skips the JSON schema; validate() holds its bounds.
    with pytest.raises(SpecError, match=rf"^params\.defaults\.{name}: must be >"):
        Deployment(chain_spec(1, hosts=1, defaults=replace(Defaults(), **{name: bad})))
    Deployment(chain_spec(1, hosts=1, defaults=replace(Defaults(), **{name: allowed})))


@pytest.mark.parametrize("name, bad, allowed", [
    ("hop_limit", 2.5, 2),
    ("hop_limit", 2.0, 2),  # JSON's 2.0 passes the schema as an integer
    ("hop_limit", 256, 255),  # the hop byte
    ("hop_limit", True, 1),
    ("max_retries", 1.5, 2),
    ("discovery_wait_ms", "100", 100),
    # A timer counts whole microseconds; round() takes 0.5 us to 0 (half to even).
    ("discovery_wait_ms", 0.0004, 0.001),
    ("discovery_wait_ms", 0.0005, 0.001),
    ("request_timeout_ms", 0.0004, 0.001),
    ("request_timeout_ms", 0.0005, 0.001),
    # A time whose count of microseconds is not a finite number.
    ("discovery_wait_ms", float("inf"), 100.0),
    ("tm_service_ms", 1e308, 1.0),
    ("control_delay_ms", float("inf"), 0.5),
])
def test_default_the_run_cannot_use_rejected(name, bad, allowed):
    # Each default must have its schema type and stay within its maximum, and
    # a timer must not round to 0 us, whether the spec is built in Python or
    # parsed from JSON.
    spec = chain_spec(1, hosts=1, defaults=replace(Defaults(), **{name: bad}))
    with pytest.raises(SpecError, match=rf"^params\.defaults\.{name}: "):
        Deployment(spec)
    with pytest.raises(SpecError, match=rf"^params\.defaults\.{name}: "):
        parse_spec(spec.to_json())
    spec = chain_spec(1, hosts=1, defaults=replace(Defaults(), **{name: allowed}))
    Deployment(parse_spec(spec.to_json())).run_bootstrap()


def test_huge_int_time_is_valid_and_ends_at_the_time_limit():
    # An int counts microseconds exactly however large; only a float overflows.
    spec = chain_spec(1, hosts=1, defaults=replace(Defaults(), tm_service_ms=10 ** 400))
    with pytest.raises(LimitExceeded, match="beyond limit"):
        Deployment(parse_spec(spec.to_json())).run_bootstrap()


class TestControlDelay:
    """A nonzero ``control_delay_ms`` delays every controller-channel event and
    changes no end state: the same graph and switch tables as at 0 ms, after
    bootstrap and after a flap of every switch-switch cable."""

    @staticmethod
    def run(control_delay_ms):
        spec = generate_random(10, 14, 8, 1, delay_ms=0.1)
        spec.defaults = replace(spec.defaults, control_delay_ms=control_delay_ms)
        net = Deployment(spec)
        report = net.run_bootstrap()
        assert net.all_done()
        state = lambda: (net.graph.dump(),
                         {name: sw.table.snapshot() for name, sw in net.switches.items()})
        states = [state()]
        for link in [l for l in spec.links if l.a[0] == l.b[0] == "s"]:
            net.fail_link(link.a, link.b)
            net.run_until_idle()
            net.restore_link(link.a, link.b)
            net.run_until_idle()
            states.append(state())
        probes = [net.inject_probe(host) for host in net.hosts]
        net.run_until_idle()
        assert all(net.tm_name in net.consumed.get(probe, []) for probe in probes)
        return report, states

    def test_same_end_states_as_without_delay(self):
        delayed, states = self.run(0.5)
        plain, plain_states = self.run(0.0)
        assert len(states) == 15 and states == plain_states
        # A switch's handshake crosses the controller channel four times.
        for name in [f"s{i}" for i in range(1, 11)]:
            label = f"bootstrap:{name}"
            extra = delayed.span(label).duration_us - plain.span(label).duration_us
            assert extra >= 4 * 500
        assert delayed.end_us > plain.end_us


class TestTmCharge:
    """Serving a message costs ``tm_alloc_per_lid_ms`` per LID it added to the registry."""

    @staticmethod
    def run(alloc_ms):
        net = Deployment(chain_spec(3, hosts=2, delay_ms=0.1, defaults=Defaults(
            tm_service_ms=0.0, tm_alloc_per_lid_ms=alloc_ms)))
        report = net.run_bootstrap()
        assert net.all_done()
        start = net.sim.now
        net.fail_link("s1", "s2")
        net.run_until_idle()
        net.restore_link("s1", "s2")
        return report, net.run_until_idle() - start

    def test_switch_pays_two_lids_host_three_revived_cable_none(self):
        (charged, flap), (free, free_flap) = self.run(1.0), self.run(0.0)
        for name, lids in [("s1", 2), ("s2", 2), ("s3", 2), ("h1", 3), ("h2", 3)]:
            label = f"bootstrap:{name}"
            extra = charged.span(label).duration_us - free.span(label).duration_us
            assert extra == lids * 1000, name
        assert flap == free_flap  # a REMOVE and a revival draw no LID


class TestOrchestration:
    """A switch with no ICN-enabled attach point at its turn waits for one."""

    @staticmethod
    def found_spec(tm_to):
        """``generate_random(3, 3, 2, 1)`` less its s1 - s2 cable, the TM cabled to ``tm_to``."""
        spec = generate_random(3, 3, 2, 1)
        spec.links = [TopoLink("tm", tm_to, l.delay_ms) if l.a == "tm" else l
                      for l in spec.links if {l.a, l.b} != {"s1", "s2"}]
        return spec

    @pytest.mark.parametrize("tm_to, order", [("s1", ["s1", "s3", "s2"]),
                                              ("s3", ["s3", "s1", "s2"])])
    def test_waiting_switch_starts_once_a_neighbour_is_enabled(self, tm_to, order):
        net = Deployment(self.found_spec(tm_to))
        report = net.run_bootstrap()
        assert net.all_done() and net.failures == {}
        spans = [report.span(f"bootstrap:{name}") for name in order + ["h1", "h2"]]
        # Each node starts at the tick its predecessor ends with.
        assert all(a.end_us == b.start_us for a, b in zip(spans, spans[1:]))

    def test_switch_never_reachable_named_once_nothing_is_left(self):
        spec = TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("s2", "switch"),
                   TopoNode("h1", "host")],
            links=[TopoLink("tm", "s1", 0.2), TopoLink("h1", "s2", 0.2)], seed=3)
        net = Deployment(spec)
        net.run_bootstrap()
        assert net.failures == {"h1": "bootstrap retries exhausted",
                                "s2": "no ICN-enabled attach point"}
        assert net.report().final_states == {"tm": "TM", "s1": "ENABLED", "s2": "PENDING",
                                             "h1": "FAILED"}


class TestDenseBootstrap:
    """A dense fabric: 24 switches, 200 links, 32 hosts."""

    def spec(self):
        return generate_random(24, 200, 32, 5)

    def test_tm_routes_need_no_bfs(self, monkeypatch):
        # Replies and Notifies reverse the node's in-tree path; only a
        # shortest_path between other nodes would run a BFS.
        calls = []
        distances_to = TopologyGraph._distances_to

        def counted(graph, *args):
            calls.append(args)
            return distances_to(graph, *args)

        monkeypatch.setattr(TopologyGraph, "_distances_to", counted)
        net = Deployment(self.spec())
        net.run_bootstrap()
        assert net.all_done()
        assert calls == []

    def test_discovery_ports_released(self):
        net = Deployment(self.spec())
        net.run_bootstrap()
        assert net.all_done()
        assert net.controller.pending_discovery == {}


class TestHostLinkFlap:
    def test_revived_host_link_not_announced(self, caplog):
        # On restore of h1's only link the TM cannot reach h1 until both
        # directions are back; the revived link keeps its LID, so there is
        # nothing to announce.
        spec = TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("h1", "host")],
            links=[TopoLink("tm", "s1", 0.2), TopoLink("h1", "s1", 0.2)], seed=59)
        net = Deployment(spec)
        net.run_bootstrap()
        host = net.hosts["h1"]
        lids = dict(host.config.link_lids)
        with caplog.at_level("WARNING"):
            net.fail_link("h1", "s1")
            net.run_until_idle()
            net.restore_link("h1", "s1")
            net.run_until_idle()
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == []
        assert host.config.link_lids == lids
        trace = net.inject_probe("h1")
        net.run_until_idle()
        assert net.consumed.get(trace) == ["tm"]


class TestDataPayloads:
    def test_data_is_told_from_control_without_decoding(self, monkeypatch):
        net = Deployment(generate_random(24, 200, 32, 5))
        net.run_bootstrap()
        assert net.all_done()
        raised = []
        decode_frame = wire.decode

        def counted(*args):
            try:
                return decode_frame(*args)
            except wire.CodecError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(wire, "decode", counted)
        rng = Random(5)
        hosts = sorted(net.hosts)
        traces = [(net.inject_data(*pair), pair[1])
                  for pair in (rng.sample(hosts, 2) for _ in range(1000))]
        net.run_until_idle()
        assert all(dst in net.consumed.get(t, ()) for t, dst in traces)
        assert raised == []

    def test_undecodable_frame_not_consumed(self):
        net = Deployment(chain_spec(1, hosts=1), trace_hops=TRACE_HOPS)
        net.run_bootstrap()
        host = net.hosts["h1"]
        payload = bytes([wire.VERSION]) + b"junk"
        packet = IcnPacket(host.config.tmfid, payload, trace_id=net.next_trace())
        host.send(packet, net.hop_limit)
        net.run_until_idle()
        assert ("s1", "tm") in net.traces[packet.trace_id]  # it reached the TM
        assert packet.trace_id not in net.consumed

    def test_undecodable_frame_logged_by_receiver(self, caplog):
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()
        junk = bytes([wire.VERSION]) + b"junk"
        net.sim.schedule(0, net.sim.handler("ctl"), junk)
        net.sim.schedule(0, net.tm.handler, junk)
        with caplog.at_level("INFO", logger="icnsim.deploy"):
            net.run_until_idle()
        lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        assert [line.split(":")[0] for line in lines] == ["controller", "tm"]
        assert all("undecodable control frame dropped" in line for line in lines)


class TestTrafficEndpoints:
    """Traffic runs between the TM and DONE hosts; any other node is a named error."""

    @pytest.fixture
    def net(self):
        net = Deployment(chain_spec(1, hosts=2), trace_hops=TRACE_HOPS)
        net.run_bootstrap()
        return net

    def test_switch_is_not_an_endpoint(self, net):
        with pytest.raises(EndpointError, match="'s1' is a switch"):
            net.inject_data("s1", "h1")
        with pytest.raises(EndpointError, match="'s1' is a switch"):
            net.inject_probe("s1")

    def test_unknown_name_is_not_an_endpoint(self, net):
        with pytest.raises(EndpointError, match="'h9' is not a node"):
            net.inject_data("h1", "h9")

    def test_host_not_done_is_not_an_endpoint(self):
        net = Deployment(chain_spec(1, hosts=1))
        with pytest.raises(EndpointError, match="host 'h1' is INIT, not DONE"):
            net.inject_data("tm", "h1")

    def test_same_source_and_destination(self, net):
        with pytest.raises(EndpointError, match="'h1' is both source and destination"):
            net.inject_data("h1", "h1")

    def test_probe_from_failed_host(self):
        net = failed_host_net()
        with pytest.raises(EndpointError, match="host 'h1' is FAILED, not DONE"):
            net.inject_probe("h1")

    def test_probe_from_a_host_whose_tmfid_update_was_lost(self):
        # h1 is DONE, but the TM's self-Update carrying its TMFID never arrived.
        spec = TopologySpec(
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"),
                   TopoNode("h1", "host"), TopoNode("h2", "host")],
            links=[TopoLink("tm", "s1", 0.2), TopoLink("h1", "s1", 0.2),
                   TopoLink("h2", "s1", 0.2)], seed=53)
        net = Deployment(spec)
        net.drop_filter = drop_tmfid_updates_to(net, "h1")
        net.run_bootstrap()
        assert net.hosts["h1"].fsm.state == BootstrapState.DONE
        assert net.hosts["h1"].config.tmfid is None
        assert not net.all_done()  # DONE without a TMFID is not done
        with pytest.raises(EndpointError, match="host 'h1' holds no TMFID"):
            net.inject_probe("h1")
        trace = net.inject_probe("h2")  # the other host still probes
        net.run_until_idle()
        assert "tm" in net.consumed[trace]

    def test_probe_from_the_tm(self, net):
        with pytest.raises(EndpointError, match="'tm' is the TM"):
            net.inject_probe("tm")

    def test_rejected_injection_sends_nothing(self, net):
        traces = {trace: list(hops) for trace, hops in net.traces.items()}
        assert traces  # the bootstrap's hops
        with pytest.raises(EndpointError):
            net.inject_data("h2", "h2")
        net.run_until_idle()
        assert net.traces == traces

    def test_valid_endpoints_still_deliver(self, net):
        sends = [(net.inject_data("h1", "h2"), "h2"), (net.inject_data("tm", "h1"), "h1"),
                 (net.inject_probe("h2"), "tm")]
        net.run_until_idle()
        assert all(dst in net.consumed[trace] for trace, dst in sends)


class TestTmErrors:
    """The TM logs the protocol's named errors and lets anything else propagate."""

    def test_remove_of_unknown_link_logged_and_run_goes_on(self, caplog):
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()
        h1, s1 = net.nid_of("h1"), net.nid_of("s1")
        # The TM and h1 share no link.
        net.ctl_send(LinkEvent(LinkEventKind.REMOVE, TM_NID, h1, 0.0))
        with caplog.at_level("WARNING", logger="icnsim.deploy"):
            net.run_until_idle()
        assert ["link event failed" in r.getMessage() for r in caplog.records] == [True]
        net.fail_link("h1", "s1")
        net.run_until_idle()
        assert (h1, s1) not in net.graph.links

    def test_add_out_of_lids_logged_and_next_message_served(self, caplog):
        # m = 8, k = 1 makes 8 LIDs: the TM's iLID and three switches' cables
        # leave one, so the ADD of a new cable s1 - s2 draws it and runs out
        # on its second draw.  The TM takes nothing and serves the REMOVE
        # that follows.
        spec = TopologySpec(m=8, k=1, seed=59,
                            nodes=[TopoNode(n, "tm" if n == "tm" else "switch")
                                   for n in ("tm", "s1", "s2", "s3")],
                            links=[TopoLink("tm", s, 0.2) for s in ("s1", "s2", "s3")])
        net = Deployment(spec)
        net.run_bootstrap()
        assert net.all_done() and len(net.graph.lid_registry) == 7
        before = (set(net.graph.lid_registry), dict(net.graph.links), net.graph.dump())
        s1, s2, s3 = (net.nid_of(s) for s in ("s1", "s2", "s3"))
        net.ctl_send(LinkEvent(LinkEventKind.ADD, s1, s2, 0.2))
        with caplog.at_level("WARNING", logger="icnsim.deploy"):
            net.run_until_idle()
        assert [r.getMessage() for r in caplog.records] == [
            "tm: link event failed: no unused LID found in 64 draws"]
        assert (net.graph.lid_registry, net.graph.links, net.graph.dump()) == before
        assert not net.graph.down_links
        net.fail_link("s3", "tm")
        net.run_until_idle()
        assert set(net.graph.down_links) == {(s3, TM_NID), (TM_NID, s3)}
        assert net.graph.lid_registry == before[0]

    def test_link_stats_report_logged_as_unexpected(self, caplog):
        # Nothing in the network sends the TM a LinkStatsReport; one that
        # arrives is dropped like any other unexpected frame.
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()
        before = net.graph.dump()
        lid = net.graph.links[(net.nid_of("s1"), TM_NID)].lid
        net.ctl_send(wire.LinkStatsReport((wire.StatsEntry(lid, 10, 500_000),)))
        with caplog.at_level("INFO", logger="icnsim.bootstrap"):
            net.run_until_idle()
        assert [r.getMessage() for r in caplog.records] == [
            "tm: unexpected LinkStatsReport dropped"]
        assert net.graph.dump() == before
        net.fail_link("h1", "s1")
        net.run_until_idle()
        assert (net.nid_of("h1"), net.nid_of("s1")) not in net.graph.links

    def test_programming_error_propagates(self, monkeypatch):
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()

        def broken(event):
            raise RuntimeError("engine bug")

        monkeypatch.setattr(net.tm.engine, "on_link_event", broken)
        net.fail_link("h1", "s1")
        with pytest.raises(RuntimeError, match="engine bug"):
            net.run_until_idle()


def test_emit_on_unwired_port_logs_and_drops(caplog):
    net = Deployment(chain_spec(1, hosts=1), trace_hops=TRACE_HOPS)
    net.run_bootstrap()
    assert net.traces  # the bootstrap's hops
    packet = IcnPacket(net.hosts["h1"].config.tmfid, b"DATA", trace_id=net.next_trace())
    with caplog.at_level("WARNING", logger="icnsim.deploy"):
        net.emit(net.switches["s1"], 7, packet, net.hop_limit)
    assert [r.getMessage() for r in caplog.records] == ["s1: emission on unwired port 7"]
    assert packet.trace_id not in net.traces


class TestLinkFaultNames:
    """``fail_link``/``restore_link`` name a cabled pair, or raise at the call."""

    @pytest.fixture
    def net(self):
        net = Deployment(chain_spec(2, hosts=1))
        net.run_bootstrap()
        return net

    @pytest.mark.parametrize("change", ["fail_link", "restore_link"])
    @pytest.mark.parametrize("a, b, why", [
        ("zz", "s1", "unknown node 'zz'"),
        ("s1", "zz", "unknown node 'zz'"),
        ("tm", "s2", "no cable joins the two nodes"),
        ("s1", "s1", "no cable joins the two nodes"),
    ])
    def test_bad_pair_raises_and_changes_nothing(self, net, monkeypatch, change, a, b, why):
        scheduled = []
        monkeypatch.setattr(net.sim, "schedule", lambda *args: scheduled.append(args))
        with pytest.raises(CableError, match=f"link '{a}'-'{b}': {why}"):
            getattr(net, change)(a, b)
        assert net.down_pairs == set()
        assert scheduled == []

    def test_valid_flap_still_works(self, net):
        s1, s2 = net.nid_of("s1"), net.nid_of("s2")
        net.fail_link("s2", "s1")
        net.run_until_idle()
        assert net.down_pairs == {frozenset(("s1", "s2"))}
        assert (s1, s2) not in net.graph.links
        net.restore_link("s1", "s2")
        net.run_until_idle()
        assert net.down_pairs == set()
        assert (s1, s2) in net.graph.links
        trace = net.inject_data("tm", "h1")
        net.run_until_idle()
        assert net.consumed[trace] == ["h1"]


class TestHopTrace:
    """The hop trace is opt-in and bounded: ``trace_hops`` hops at most, the rest counted."""

    @staticmethod
    def run(trace_hops=0):
        net = Deployment(chain_spec(2, hosts=2), trace_hops=trace_hops)
        net.run_bootstrap()
        net.inject_data("h1", "h2")
        net.inject_probe("h2")
        net.run_until_idle()
        return net

    def test_off_by_default(self):
        net = self.run()
        assert net.traces == {}
        assert net.trace_dropped == 0
        # The data packet and the probe are still delivered.
        assert sorted(name for names in net.consumed.values() for name in names) == ["h2", "tm"]

    def test_cap_holds_and_counts_the_rest(self):
        net = self.run(TRACE_HOPS)
        assert net.trace_dropped == 0
        full = net.traces
        hops = sum(map(len, full.values()))
        assert hops > 20
        net = self.run(20)
        assert sum(map(len, net.traces.values())) == 20
        assert net.trace_dropped == hops - 20
        # The first 20 hops are kept: each kept trace is a prefix of the full one.
        assert all(full[trace][:len(kept)] == kept for trace, kept in net.traces.items())

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="trace_hops"):
            Deployment(chain_spec(1, hosts=1), trace_hops=-1)
