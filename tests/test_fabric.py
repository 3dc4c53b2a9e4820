"""Flow tables, bitmask forwarding, and controller behaviors."""

import pytest
from hypothesis import given, settings, strategies as st

from icnsim.fabric import (AttachNotEnabled, FlowRule, FlowTable, IcnPacket, MISS, PacketIn,
                           SwitchAttached, decode_packet, encode_packet, switch_forward)
from icnsim.fid import BitVector, FidParams, fid_or
from icnsim.simnet import LimitExceeded
from icnsim.deploy import Deployment
from icnsim.topospec import TopoLink, TopoNode, TopologySpec
from icnsim.wire import DiscoveryRequest, ResourceRequest, encode
from icnsim.topology import NodeKind, RuleInstallFrame, TM_NID

P8 = FidParams(m=8, k=2)
P256 = FidParams(m=256, k=5)


def bv8(value):
    return BitVector(8, value)


L1 = bv8(0b11000000)
L2 = bv8(0b00110000)


class TestFlowTable:
    def test_empty_table_misses(self):
        assert switch_forward(FlowTable(), IcnPacket(bv8(0xFF), 64, b"")) is MISS

    def test_multicast_on_or_ed_fid(self):
        table = FlowTable()
        table.add(FlowRule(L1, L1, out_port=1))
        table.add(FlowRule(L2, L2, out_port=2))
        fid = fid_or([L1, L2])
        assert sorted(switch_forward(table, IcnPacket(fid, 64, b""))) == [1, 2]

    def test_single_match(self):
        table = FlowTable()
        table.add(FlowRule(L1, L1, out_port=1))
        table.add(FlowRule(L2, L2, out_port=2))
        assert switch_forward(table, IcnPacket(L1, 64, b"")) == [1]

    def test_value_must_be_within_mask(self):
        with pytest.raises(ValueError):
            FlowRule(mask=L1, value=bv8(0b00000001), out_port=0)

    def test_duplicate_ports_deduplicated(self):
        table = FlowTable()
        table.add(FlowRule(L1, L1, out_port=3))
        table.add(FlowRule(L2, L2, out_port=3))
        assert switch_forward(table, IcnPacket(fid_or([L1, L2]), 64, b"")) == [3]

    def test_canonical_order_is_install_order_independent(self):
        a, b = FlowTable(), FlowTable()
        rules = [FlowRule(L1, L1, 1), FlowRule(L2, L2, 2), FlowRule(bv8(3), bv8(3), 0)]
        for r in rules:
            a.add(r)
        for r in reversed(rules):
            b.add(r)
        assert a.snapshot() == b.snapshot()

    def test_remove(self):
        table = FlowTable()
        table.add(FlowRule(L1, L1, 1))
        assert table.remove(L1, L1)
        assert not table.remove(L1, L1)
        assert len(table) == 0
        assert switch_forward(table, IcnPacket(L1, 64, b"")) is MISS

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
        table = FlowTable()
        for op, a, b, port, priority in steps:
            if op == 0 and table.rules:
                rule = table.rules[a % len(table.rules)]
                table.remove(rule.mask, rule.value)
            else:
                table.add(FlowRule(BitVector(width, a), BitVector(width, a & b), port, priority))
            covering = 0
            for pick in (a, b)[:len(table.rules)]:
                covering |= table.rules[pick % len(table.rules)].value.value
            for bits in (b, covering, covering | (a ^ b)):
                fid = BitVector(width, bits)
                expected = []
                for r in table.rules:
                    if fid.value & r.mask.value == r.value.value and r.out_port not in expected:
                        expected.append(r.out_port)
                assert table.match_ports(fid) == expected


class TestIcnPacket:
    def test_fields_cannot_be_assigned(self):
        packet = IcnPacket(L1, 64, b"x")
        with pytest.raises(AttributeError):
            packet.hop_limit = 3

    def test_spend_hop(self):
        packet = IcnPacket(L1, 64, b"x", trace_id=7)
        assert packet.spend_hop() == IcnPacket(L1, 63, b"x", trace_id=7)


class TestPacketCodec:
    def test_round_trip(self):
        packet = IcnPacket(BitVector.from_bits(256, [0, 9]), 64, b"payload")
        decoded = decode_packet(encode_packet(packet, P256), P256)
        assert decoded.fid == packet.fid
        assert decoded.hop_limit == 64
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

    def test_misrouted_resource_request_dropped(self):
        net = Deployment(mini_spec())
        net.run_bootstrap()
        inner = encode(ResourceRequest(1, NodeKind.ICN_NODE, 1), net.params)
        frame = encode_packet(IcnPacket(BitVector.zero(256), 64, inner), net.params)
        sent = []
        net.packet_out = lambda *a: sent.append(a)
        net.controller.on_packet_in(PacketIn("s1", 0, frame))
        assert sent == []

    def test_discovery_packet_in_answered_with_switch_tmfid(self):
        spec = mini_spec([TopoNode("h1", "host")], [TopoLink("h1", "s1", 0.0)])
        net = Deployment(spec)
        net.run_bootstrap()
        inner = encode(DiscoveryRequest(12345), net.params)
        frame = encode_packet(IcnPacket(BitVector.zero(256), 64, inner), net.params)
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
        net.controller.on_ctl_message(RuleInstallFrame(True, 0, s1, TM_NID, lid, lid, 7))
        rule = FlowRule(lid, lid, out_port=0, priority=7)  # port 0 faces the TM
        assert rule in net.switches["s1"].table.snapshot()
        net.controller.on_ctl_message(RuleInstallFrame(False, 0, s1, TM_NID, lid, lid, 7))
        assert rule not in net.switches["s1"].table.snapshot()

    def test_packet_in_counter(self):
        net = Deployment(mini_spec())
        net.run_bootstrap()
        before = net.controller.packet_in_count
        net.controller.on_packet_in(PacketIn("s1", 0, b"junk"))
        assert net.controller.packet_in_count == before + 1


class TestBloomLoop:
    def loop_net(self, hop_limit):
        spec = TopologySpec(
            m=8, k=2,
            nodes=[TopoNode("tm", "tm"), TopoNode("s1", "switch"),
                   TopoNode("s2", "switch"), TopoNode("s3", "switch")],
            links=[TopoLink("tm", "s1", 1.0), TopoLink("s1", "s2", 1.0),
                   TopoLink("s2", "s3", 1.0), TopoLink("s3", "s1", 1.0)],
            seed=3,
        )
        net = Deployment(spec)
        lid = bv8(0b11000000)
        for name, peer in (("s1", "s2"), ("s2", "s3"), ("s3", "s1")):
            port = next(p for p, n in net.switches[name].ports.items() if n.dst == peer)
            net.switches[name].table.add(FlowRule(lid, lid, port))
        packet = IcnPacket(lid, hop_limit, b"loop", trace_id=net.next_trace())
        port = next(p for p, n in net.switches["s1"].ports.items() if n.dst == "s2")
        net.emit(net.switches["s1"], port, packet)
        return net

    def test_unbounded_loop_hits_limit(self):
        # A budget far beyond the ~50 hops that fit in the run limit.
        net = self.loop_net(hop_limit=10_000)
        with pytest.raises(LimitExceeded):
            net.run_until_idle(limit_us=50_000)

    def test_hop_limit_terminates(self):
        net = self.loop_net(hop_limit=64)
        net.run_until_idle(limit_us=1_000_000)  # drains within the limit
