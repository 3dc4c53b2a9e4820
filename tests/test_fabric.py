"""Flow tables, bitmask forwarding, and controller behaviors."""

import pytest
from hypothesis import given, settings, strategies as st

from icnsim.fabric import (AttachNotEnabled, FlowRule, FlowTable, IcnPacket, PacketIn,
                           SwitchAttached, decode_packet, encode_packet, switch_forward)
from icnsim.fid import BitVector, FidParams, fid_or
from icnsim.simnet import LimitExceeded
from icnsim.deploy import Deployment
from icnsim.topospec import TopoLink, TopoNode, TopologySpec
from icnsim.wire import DiscoveryRequest, ResourceRequest, encode
from icnsim.topology import NodeKind, RuleInstallFrame, TM_NID

P8 = FidParams(m=8, k=2)
P256 = FidParams(m=256, k=5)


L1 = 0b11000000
L2 = 0b00110000


class TestFlowTable:
    def test_empty_table_misses(self):
        assert switch_forward(FlowTable(8), IcnPacket(0xFF, b"")) is None

    def test_multicast_on_or_ed_fid(self):
        table = FlowTable(8)
        table.add(L1, L1, out_port=1)
        table.add(L2, L2, out_port=2)
        fid = fid_or([BitVector(8, L1), BitVector(8, L2)]).value
        assert sorted(switch_forward(table, IcnPacket(fid, b""))) == [1, 2]

    def test_single_match(self):
        table = FlowTable(8)
        table.add(L1, L1, out_port=1)
        table.add(L2, L2, out_port=2)
        assert switch_forward(table, IcnPacket(L1, b"")) == [1]

    def test_value_must_be_within_mask(self):
        table = FlowTable(8)
        with pytest.raises(ValueError):
            table.add(mask=L1, value=0b00000001, out_port=0)
        assert len(table) == 0

    def test_duplicate_ports_deduplicated(self):
        table = FlowTable(8)
        table.add(L1, L1, out_port=3)
        table.add(L2, L2, out_port=3)
        assert switch_forward(table, IcnPacket(L1 | L2, b"")) == [3]

    def test_canonical_order_is_install_order_independent(self):
        a, b = FlowTable(8), FlowTable(8)
        rules = [(L1, L1, 1), (L2, L2, 2), (3, 3, 0)]
        for r in rules:
            a.add(*r)
        for r in reversed(rules):
            b.add(*r)
        assert a.snapshot() == b.snapshot()

    def test_snapshot_text(self):
        # The benchmark digest hashes this text: identifiers as vectors of
        # the table's width, rules in canonical order (priority first).
        table = FlowTable(8)
        table.add(L2, L2, out_port=2)
        table.add(L1, 0b01000000, out_port=1, priority=7)
        assert repr(table.snapshot()) == (
            "(FlowRule(mask=BitVector(width=8, value=48), value=BitVector(width=8, value=48), "
            "out_port=2, priority=100), "
            "FlowRule(mask=BitVector(width=8, value=192), value=BitVector(width=8, value=64), "
            "out_port=1, priority=7))")

    def test_remove(self):
        table = FlowTable(8)
        table.add(L1, L1, 1)
        assert table.remove(L1, L1)
        assert not table.remove(L1, L1)
        assert len(table) == 0
        assert switch_forward(table, IcnPacket(L1, b"")) is None

    @pytest.mark.parametrize("width", [8, 64, 256])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(data=st.data())
    def test_match_agrees_with_the_rules_after_any_changes(self, width, data):
        # Each step removes a present rule (op 0) or adds one, then looks up
        # a random FID and one that covers up to two rules.  Oracle: every
        # rule of the canonical list whose masked FID equals its value, by
        # port, first match first.
        vec = st.integers(min_value=0, max_value=2 ** width - 1)
        steps = data.draw(st.lists(st.tuples(st.integers(min_value=0, max_value=2), vec, vec,
                                             st.integers(min_value=0, max_value=5),
                                             st.integers(min_value=99, max_value=101)),
                                   max_size=40))
        table = FlowTable(width)
        for op, a, b, port, priority in steps:
            rules = table.snapshot()
            if op == 0 and rules:
                rule = rules[a % len(rules)]
                kept = tuple(r for r in rules if (r.mask, r.value) != (rule.mask, rule.value))
                table.remove(rule.mask.value, rule.value.value)
                assert table.snapshot() == kept  # every rule of that mask and value, no other
            else:
                table.add(a, a & b, port, priority)
            rules = table.snapshot()
            covering = 0
            for pick in (a, b)[:len(rules)]:
                covering |= rules[pick % len(rules)].value.value
            for bits in (b, covering, covering | (a ^ b)):
                expected = []
                for r in rules:
                    if bits & r.mask.value == r.value.value and r.out_port not in expected:
                        expected.append(r.out_port)
                assert table.match_ports(bits) == expected
            keys = [(-r.priority, r.mask.value, r.value.value, r.out_port) for r in rules]
            assert keys == sorted(set(keys))  # canonical order, no rule twice
            assert table.rules == keys  # the table is its snapshot, as int tuples


class TestIcnPacket:
    def test_fields_cannot_be_assigned(self):
        packet = IcnPacket(L1, b"x")
        with pytest.raises(AttributeError):
            packet.payload = b"y"


class TestPacketCodec:
    def test_round_trip(self):
        packet = IcnPacket(BitVector.from_bits(256, [0, 9]).value, b"payload")
        decoded, hop_limit = decode_packet(encode_packet(packet, 64, P256), P256)
        assert decoded.fid == packet.fid
        assert hop_limit == 64
        assert decoded.payload == b"payload"

    def test_short_frame_rejected(self):
        from icnsim.wire import CodecError
        with pytest.raises(CodecError):
            decode_packet(b"\x00" * 4, P256)


def mini_spec(extra_nodes=(), extra_links=(), m=256, k=5):
    nodes = [TopoNode("tm", "tm"), TopoNode("s1", "switch"), *extra_nodes]
    links = [TopoLink("tm", "s1", 0.0), *extra_links]
    spec = TopologySpec(m=m, k=k, nodes=nodes, links=links, seed=5)
    return spec


class TestController:
    def test_attach_to_non_enabled_switch(self):
        spec = mini_spec([TopoNode("s2", "switch"), TopoNode("s3", "switch")],
                         [TopoLink("s1", "s2", 0.0), TopoLink("s2", "s3", 0.0)])
        net = Deployment(spec)
        with pytest.raises(AttachNotEnabled):
            net.controller.on_switch_attached(SwitchAttached("s3", "s2"))

    def test_garbage_packet_in_dropped(self):
        net = Deployment(mini_spec())
        net.run_bootstrap()
        drops = net.controller.audit_drops
        net.controller.on_packet_in(PacketIn("s1", 0, b"\xff\xff\xff"))
        assert net.controller.audit_drops == drops + 1

    def test_truncated_ctl_frame_dropped(self, caplog):
        net = Deployment(mini_spec())
        net.run_bootstrap()
        drops = net.controller.audit_drops
        frame = encode(ResourceRequest(1, NodeKind.ICN_NODE, 1), net.params)
        with caplog.at_level("INFO", logger="icnsim.deploy"):
            net.sim.handler("ctl")(frame[:-1])
        assert net.controller.audit_drops == drops + 1
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["controller"]
        assert "undecodable control frame dropped" in caplog.records[0].getMessage()

    def test_misrouted_resource_request_dropped(self):
        net = Deployment(mini_spec())
        net.run_bootstrap()
        inner = encode(ResourceRequest(1, NodeKind.ICN_NODE, 1), net.params)
        frame = encode_packet(IcnPacket(0, inner), 64, net.params)
        sent = []
        net.packet_out = lambda *a: sent.append(a)
        net.controller.on_packet_in(PacketIn("s1", 0, frame))
        assert sent == []

    def test_discovery_packet_in_answered_with_switch_tmfid(self):
        spec = mini_spec([TopoNode("h1", "host")], [TopoLink("h1", "s1", 0.0)])
        net = Deployment(spec)
        net.run_bootstrap()
        inner = encode(DiscoveryRequest(12345), net.params)
        frame = encode_packet(IcnPacket(0, inner), 64, net.params)
        sent = []
        net.packet_out = lambda switch, port, packet: sent.append((switch, port, packet))
        net.controller.on_packet_in(PacketIn("s1", 1, frame))
        assert len(sent) == 1
        switch, port, packet = sent[0]
        assert (switch, port) == ("s1", 1)
        from icnsim.wire import decode
        offer = decode(packet.payload, net.params)
        s1_nid = net.controller.enabled["s1"]
        assert offer.responder_nid == s1_nid
        assert offer.tmfid == net.graph.nodes[s1_nid].tmfid

    def test_rule_frame_installed_as_sent(self):
        # The frame's value and priority reach the switch table unchanged.
        net = Deployment(mini_spec())
        net.run_bootstrap()
        s1 = net.controller.enabled["s1"]
        lid = BitVector.from_bits(256, [1, 2, 3, 4, 5])
        bits = lid.value
        net.controller.on_ctl_message(RuleInstallFrame(True, 0, s1, TM_NID, bits, bits, 7))
        rule = FlowRule(lid, lid, out_port=0, priority=7)  # port 0 faces the TM
        assert rule in net.switches["s1"].table.snapshot()
        net.controller.on_ctl_message(RuleInstallFrame(False, 0, s1, TM_NID, bits, bits, 7))
        assert rule not in net.switches["s1"].table.snapshot()

    @pytest.mark.parametrize("hop_limit", [0, 37, 300])
    def test_zero_fid_miss_reaches_the_controller_with_the_arriving_budget(self, hop_limit):
        net = Deployment(mini_spec())
        net.run_bootstrap()
        seen = []
        net.controller.on_packet_in = seen.append
        packet = IcnPacket(0, encode(DiscoveryRequest(9), net.params))
        net.sim.schedule(0, net.switches["s1"].handler, (packet, 0, hop_limit))  # a copy in flight
        net.run_until_idle()
        [event] = seen
        assert (event.switch, event.in_port) == ("s1", 0)
        assert event.data[256 // 8] == min(hop_limit, 255)  # the hop byte
        assert event.data == encode_packet(packet, hop_limit, net.params)

    def test_packet_in_counter(self):
        net = Deployment(mini_spec())
        net.run_bootstrap()
        before = net.controller.packet_in_count
        net.controller.on_packet_in(PacketIn("s1", 0, b"junk"))
        assert net.controller.packet_in_count == before + 1


class TestBloomLoop:
    def loop_net(self, hop_limit, trace_hops=0):
        spec = TopologySpec(
            m=8, k=2,
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"),
                   TopoNode("s2", "switch"), TopoNode("s3", "switch")],
            links=[TopoLink("tm", "s1", 1.0), TopoLink("s1", "s2", 1.0),
                   TopoLink("s2", "s3", 1.0), TopoLink("s3", "s1", 1.0)],
            seed=3,
        )
        net = Deployment(spec, trace_hops=trace_hops)
        lid = 0b11000000
        for name, peer in (("s1", "s2"), ("s2", "s3"), ("s3", "s1")):
            port = next(p for p, n in net.switches[name].ports.items() if n.dst == peer)
            net.switches[name].table.add(lid, lid, port)
        packet = IcnPacket(lid, b"loop", trace_id=net.next_trace())
        port = next(p for p, n in net.switches["s1"].ports.items() if n.dst == "s2")
        net.emit(net.switches["s1"], port, packet, hop_limit)
        return net

    @pytest.mark.parametrize("hop_limit", [0, 1, 5, 64])
    def test_budget_h_makes_h_plus_one_emissions(self, hop_limit):
        # Each switch re-emits with one hop less; the copy that arrives
        # with none left is dropped, once, by the switch it reaches.
        net = self.loop_net(hop_limit, trace_hops=1000)
        net.run_until_idle(limit_us=1_000_000)  # a budget never spent would loop past it
        [hops] = net.traces.values()
        assert len(hops) == hop_limit + 1
        assert hops[:3] == [("s1", "s2"), ("s2", "s3"), ("s3", "s1")][:hop_limit + 1]
        assert sorted(sw.drops for sw in net.switches.values()) == [0, 0, 1]

    def test_unbounded_loop_hits_limit(self):
        # A budget far beyond the ~50 hops that fit in the run limit.
        net = self.loop_net(hop_limit=10_000)
        with pytest.raises(LimitExceeded):
            net.run_until_idle(limit_us=50_000)

    def test_hop_limit_terminates(self):
        net = self.loop_net(hop_limit=64)
        net.run_until_idle(limit_us=1_000_000)  # drains within the limit
