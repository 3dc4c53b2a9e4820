"""End-to-end deployments: handshakes over the fabric, rules, resilience."""

from random import Random

import pytest

from icnsim import wire
from icnsim.bootstrap import BootstrapState
from icnsim.deploy import CableError, CtlDelivery, Deployment, EndpointError
from icnsim.fabric import IcnPacket
from icnsim.fid import fid_or
from icnsim.simnet import NeverCompleted
from icnsim.topology import TM_NID, LinkEvent, LinkEventKind, TopologyGraph
from icnsim.topospec import (Defaults, SpecError, TopoLink, TopoNode, TopologySpec,
                             generate_random)
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


def failed_host_net():
    """tm - s1 - h1, bootstrapped with every frame to h1 dropped: h1 ends FAILED."""
    spec = TopologySpec(
        nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"), TopoNode("h1", "host")],
        links=[TopoLink("tm", "s1", 0.2), TopoLink("h1", "s1", 0.2)], seed=53)
    net = Deployment(spec)
    net.drop_filter = lambda src, dst, packet: dst == "h1"
    net.run_bootstrap()
    return net


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
        inter_switch_lids = {link.lid.value for link in net.graph.links.values()
                             if link.src in switch_nids and link.dst in switch_nids}
        total, inter = 0, 0
        for sw in net.switches.values():
            for rule in sw.table.rules:
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
        assert any(r.value == down_lid for r in net.switches["s1"].table.rules)

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
        record = net.graph.nodes[nid]
        assert record.tmfid == fid_or([l.lid for l in record.managed_path])
        assert record.managed_path[-1].dst == TM_NID


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
        net = Deployment(spec)
        report = net.run_bootstrap()
        assert set(report.final_states.values()) <= {"TM", "DONE", "ENABLED"}
        h1, s1 = net.nid_of("h1"), net.nid_of("s1")
        assert net.hosts["h1"].fsm.attach_nid == TM_NID
        assert net.controller.pending_discovery == {}
        net.fail_link("h1", "tm")
        net.run_until_idle()
        record = net.graph.nodes[h1]
        assert [l.key() for l in record.managed_path] == [(h1, s1), (s1, TM_NID)]
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
        # The controller reports the failure as one REMOVE per direction, in
        # the order given; the repair Update must arrive either way.
        net = Deployment(self.diamond())
        net.run_bootstrap()
        old_tmfid = net.hosts["h1"].config.tmfid
        net.fail_link(a, b)
        net.run_until_idle()
        new_tmfid = net.hosts["h1"].config.tmfid
        assert new_tmfid != old_tmfid
        assert new_tmfid == net.graph.nodes[net.nid_of("h1")].tmfid

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
        net = Deployment(spec)
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
        assert any(r.value == lid_23 for r in net.switches["s2"].table.rules)

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
        # once, as one ADD per direction.
        uncovered = len(spec.links) - (len(spec.nodes) - 1)
        assert len(added) == 2 * uncovered
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
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()
        host = net.hosts["h1"]
        payload = bytes([wire.VERSION]) + b"junk"
        packet = IcnPacket(host.config.tmfid, net.hop_limit, payload, trace_id=net.next_trace())
        host.send(packet)
        net.run_until_idle()
        assert ("s1", "tm") in net.traces[packet.trace_id]  # it reached the TM
        assert packet.trace_id not in net.consumed

    def test_undecodable_frame_logged_by_receiver(self, caplog):
        net = Deployment(chain_spec(1, hosts=1))
        net.run_bootstrap()
        junk = bytes([wire.VERSION]) + b"junk"
        net.sim.schedule_in(0, "ctl", CtlDelivery(junk))
        net.sim.schedule_in(0, "node:tm", CtlDelivery(junk))
        with caplog.at_level("INFO", logger="icnsim.deploy"):
            net.run_until_idle()
        lines = [r.getMessage() for r in caplog.records if r.levelname == "INFO"]
        assert [line.split(":")[0] for line in lines] == ["controller", "tm"]
        assert all("undecodable control frame dropped" in line for line in lines)


class TestTrafficEndpoints:
    """Traffic runs between the TM and DONE hosts; any other node is a named error."""

    @pytest.fixture
    def net(self):
        net = Deployment(chain_spec(1, hosts=2))
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

    def test_probe_from_the_tm(self, net):
        with pytest.raises(EndpointError, match="'tm' is the TM"):
            net.inject_probe("tm")

    def test_rejected_injection_sends_nothing(self, net):
        traces = dict(net.traces)
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
    net = Deployment(chain_spec(1, hosts=1))
    net.run_bootstrap()
    packet = IcnPacket(net.hosts["h1"].config.tmfid, net.hop_limit, b"DATA",
                       trace_id=net.next_trace())
    with caplog.at_level("WARNING", logger="icnsim.deploy"):
        net.emit(net.switches["s1"], 7, packet)
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
        monkeypatch.setattr(net.sim, "schedule_in", lambda *args: scheduled.append(args))
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
