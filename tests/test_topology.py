"""Topology manager: allocation lifecycle, paths, TE, resilience, stats."""

from random import Random

import pytest

from icnsim import topology
from icnsim.fid import BitVector, Exhausted, FidParams, fid_or
from icnsim.topology import (LinkEvent, LinkEventKind, LinkStatsReport, NodeKind,
                             NoPendingGrant, StatsEntry, TM_NID, TopologyGraph,
                             UnknownAttachPoint, UnknownLink, Unreachable)


def make_graph(m=256, k=5, seed=1):
    return TopologyGraph(FidParams(m=m, k=k), Random(seed))


def or_fid(lids, m=256):
    """The oracle FID of int LIDs: ``fid_or`` of their vectors."""
    return fid_or([BitVector(m, lid) for lid in lids], width=m).value


def attach(graph, kind, attach_nid):
    grant = graph.allocate_resources(kind, attach_nid)
    graph.commit_grant(grant.nid)
    return grant.nid


def link_up(graph, a, b):
    """Bring up the cable a - b with one ADD event: a->b's LID is drawn first."""
    graph.handle_link_event(LinkEvent(LinkEventKind.ADD, a, b))


class TestAllocation:
    def test_icn_node_grant_has_triple(self):
        g = make_graph()
        grant = g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        assert grant.nid >= 2
        assert BitVector(256, grant.lid).value.bit_count() == 5
        assert grant.ilid is not None

    def test_switch_grant_has_no_ilid(self):
        g = make_graph()
        grant = g.allocate_resources(NodeKind.SDN_SWITCH, TM_NID)
        assert grant.ilid is None
        assert grant.nid >= 2  # NID still allocated for management purposes

    def test_unknown_attach_point(self):
        g = make_graph()
        with pytest.raises(UnknownAttachPoint):
            g.allocate_resources(NodeKind.ICN_NODE, 999)

    def test_attach_to_uncommitted_rejected(self):
        g = make_graph()
        grant = g.allocate_resources(NodeKind.SDN_SWITCH, TM_NID)
        with pytest.raises(UnknownAttachPoint):
            g.allocate_resources(NodeKind.ICN_NODE, grant.nid)

    def test_both_directions_created(self):
        g = make_graph()
        grant = g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        assert (TM_NID, grant.nid) in g.links
        assert (grant.nid, TM_NID) in g.links
        assert g.links[(TM_NID, grant.nid)].lid == grant.lid
        assert g.links[(grant.nid, TM_NID)].lid == grant.uplink_lid

    def test_add_out_of_lids_changes_nothing(self, monkeypatch):
        # m = 8, k = 1 makes 8 LIDs: the TM's iLID and three switches' cables
        # leave one, so a new cable's first draw takes it and its second
        # finds none.  A down cable is kept as it was too.
        g = make_graph(m=8, k=1)
        a, b, c = (attach(g, NodeKind.SDN_SWITCH, TM_NID) for _ in range(3))
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, c, TM_NID))
        before = (set(g.lid_registry), dict(g.links), dict(g.down_links), g.dump())
        drawn, real_new_lid = [], topology.new_lid

        def new_lid(*args):
            drawn.append(real_new_lid(*args))
            return drawn[-1]

        monkeypatch.setattr(topology, "new_lid", new_lid)
        with pytest.raises(Exhausted):
            g.handle_link_event(LinkEvent(LinkEventKind.ADD, a, b))
        assert len(drawn) == 1 and drawn[0] not in before[0]
        assert (g.lid_registry, g.links, g.down_links, g.dump()) == before
        assert b not in g._adj[a]

    def test_exhausted_leaves_registry_unchanged(self):
        g = make_graph(m=8, k=2)
        for i in range(8):
            for j in range(i + 1, 8):
                g.lid_registry.add(BitVector.from_bits(8, [i, j]).value)
        before = set(g.lid_registry)
        with pytest.raises(Exhausted):
            g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        assert g.lid_registry == before


class TestCommitExpire:
    def test_commit_caches_tmfid(self):
        g = make_graph()
        grant = g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        record = g.commit_grant(grant.nid)
        assert record.tmfid == grant.uplink_lid  # single-link OR identity
        assert [l.key() for l in g.shortest_path(grant.nid, TM_NID)] == [(grant.nid, TM_NID)]

    def test_commit_twice_raises(self):
        g = make_graph()
        grant = g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        g.commit_grant(grant.nid)
        with pytest.raises(NoPendingGrant):
            g.commit_grant(grant.nid)

    def test_commit_never_allocated(self):
        with pytest.raises(NoPendingGrant):
            make_graph().commit_grant(77)

    def test_expire_restores_registry(self):
        g = make_graph()
        before = set(g.lid_registry)
        grant = g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        g.data_fid(TM_NID, grant.nid)  # builds the pending node's in-tree
        g.expire_grant(grant.nid)
        assert g.lid_registry == before
        assert grant.nid not in g.nodes
        assert (TM_NID, grant.nid) not in g.links
        assert grant.nid not in g._trees

    def test_expire_unknown(self):
        with pytest.raises(NoPendingGrant):
            make_graph().expire_grant(5)

    def test_commit_waits_while_attach_point_cut_off(self):
        g = make_graph()
        s = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        grant = g.allocate_resources(NodeKind.ICN_NODE, s)
        # One REMOVE takes the cable out, both directions and the TM's route
        # to the node with it.
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s, TM_NID))
        with pytest.raises(Unreachable):
            g.commit_grant(grant.nid)
        assert g.pending_grant(grant.nid) == grant
        assert not g.nodes[grant.nid].committed
        with pytest.raises(Unreachable):
            g.fid_from_tm(grant.nid)
        assert {(s, TM_NID), (TM_NID, s)} <= set(g.down_links)
        with pytest.raises(UnknownLink):  # named from its other end, it is down too
            g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, TM_NID, s))
        g.handle_link_event(LinkEvent(LinkEventKind.ADD, s, TM_NID))
        record = g.commit_grant(grant.nid)
        assert g.fid_from_tm(grant.nid) == or_fid(
            [g.links[(TM_NID, s)].lid, grant.lid, grant.ilid])
        path = g.shortest_path(grant.nid, TM_NID)
        assert [l.key() for l in path] == [(grant.nid, s), (s, TM_NID)]
        assert record.tmfid == or_fid([l.lid for l in path])

    def test_expire_after_remove_of_tentative_link(self):
        g = make_graph()
        s = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        grant = g.allocate_resources(NodeKind.ICN_NODE, s)
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, grant.nid, s))
        g.expire_grant(grant.nid)
        assert g.lid_registry == g.live_lids()
        assert not g.down_links
        assert g.allocate_resources(NodeKind.ICN_NODE, s).nid == grant.nid

    def test_reallocation_after_expiry_stays_consistent(self):
        g = make_graph()
        first = g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        g.expire_grant(first.nid)
        second = g.allocate_resources(NodeKind.ICN_NODE, TM_NID)
        g.commit_grant(second.nid)
        live = g.live_lids()
        assert len(live) == len({l for l in live})
        assert second.lid in live and second.uplink_lid in live


class TestPaths:
    def build_chain(self):
        # tm -- s -- a -- b
        g = make_graph()
        s = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        a = attach(g, NodeKind.SDN_SWITCH, s)
        b = attach(g, NodeKind.SDN_SWITCH, a)
        return g, s, a, b

    def test_src_equals_dst(self):
        g, *_ = self.build_chain()
        assert g.shortest_path(TM_NID, TM_NID) == []

    def test_linear_chain(self):
        g, s, a, b = self.build_chain()
        path = g.shortest_path(b, TM_NID)
        assert [l.key() for l in path] == [(b, a), (a, s), (s, TM_NID)]

    def test_unreachable(self):
        g, s, a, b = self.build_chain()
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, b, a))
        with pytest.raises(Unreachable):
            g.shortest_path(b, TM_NID)

    def test_diamond_tie_break_by_nid(self):
        # tm <- s1, two parallel 2-hop routes from d via b or c, NID(b) < NID(c)
        g = make_graph()
        s1 = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        b = attach(g, NodeKind.SDN_SWITCH, s1)
        c = attach(g, NodeKind.SDN_SWITCH, s1)
        d = attach(g, NodeKind.SDN_SWITCH, b)
        link_up(g, d, c)
        assert b < c
        path = g.shortest_path(d, s1)
        assert [l.key() for l in path] == [(d, b), (b, s1)]

    def test_tmfid_is_or_of_path(self):
        g, s, a, b = self.build_chain()
        path = g.shortest_path(b, TM_NID)
        assert g.nodes[b].tmfid == or_fid([l.lid for l in path])

    def test_tm_tmfid_is_zero(self):
        g = make_graph()
        assert g.nodes[TM_NID].tmfid == 0

    def test_two_hop_or(self):
        g = make_graph()
        s = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        n = attach(g, NodeKind.ICN_NODE, s)
        l1 = g.links[(n, s)].lid
        l2 = g.links[(s, TM_NID)].lid
        assert g.nodes[n].tmfid == l1 | l2

    def test_deterministic_repeated_queries(self):
        g, s, a, b = self.build_chain()
        assert g.shortest_path(b, TM_NID) == g.shortest_path(b, TM_NID)


class TestTeSelect:
    def diamond_with_loads(self, loads):
        # a -> b -> d and a -> c -> d
        g = make_graph()
        a = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        b = attach(g, NodeKind.SDN_SWITCH, a)
        c = attach(g, NodeKind.SDN_SWITCH, a)
        d = attach(g, NodeKind.SDN_SWITCH, b)
        link_up(g, c, d)
        report = LinkStatsReport(tuple(
            StatsEntry(g.links[key].lid, 0, round(load * 1e6))
            for key, load in {
                (a, b): loads[0], (b, d): loads[1],
                (a, c): loads[2], (c, d): loads[3],
            }.items()))
        g.record_stats(report)
        return g, a, b, c, d

    def test_all_zero_loads_match_shortest(self):
        g, a, b, c, d = self.diamond_with_loads([0, 0, 0, 0])
        assert g.te_select_path(a, d) == g.shortest_path(a, d)

    def test_bottleneck_avoidance(self):
        g, a, b, c, d = self.diamond_with_loads([0.9, 0.1, 0.2, 0.2])
        path = g.te_select_path(a, d)
        assert [l.key() for l in path] == [(a, c), (c, d)]

    def test_equal_bottleneck_prefers_shorter(self):
        # route via b is 2 hops; add a 3-hop alternative with equal max load
        g = make_graph()
        a = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        b = attach(g, NodeKind.SDN_SWITCH, a)
        d = attach(g, NodeKind.SDN_SWITCH, b)
        c1 = attach(g, NodeKind.SDN_SWITCH, a)
        c2 = attach(g, NodeKind.SDN_SWITCH, c1)
        link_up(g, c2, d)
        path = g.te_select_path(a, d)
        assert len(path) == 2

    def test_load_report_changes_selection(self):
        g, a, b, c, d = self.diamond_with_loads([0, 0, 0, 0])
        assert [l.key() for l in g.te_select_path(a, d)] == [(a, b), (b, d)]
        g.record_stats(LinkStatsReport((StatsEntry(g.links[(a, b)].lid, 0, 500_000),)))
        assert [l.key() for l in g.te_select_path(a, d)] == [(a, c), (c, d)]

    def test_deterministic(self):
        g, a, b, c, d = self.diamond_with_loads([0.3, 0.3, 0.3, 0.3])
        assert g.te_select_path(a, d) == g.te_select_path(a, d)


class TestLinkEvents:
    def resilience_fixture(self):
        # host -> s1, s1 -> s2 -> tm, s1 -> s3 -> tm
        g = make_graph()
        s2 = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        s3 = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        s1 = attach(g, NodeKind.SDN_SWITCH, s2)
        link_up(g, s1, s3)
        h = attach(g, NodeKind.ICN_NODE, s1)
        return g, s1, s2, s3, h

    def test_remove_unmanaged_link_no_repairs(self):
        g, s1, s2, s3, h = self.resilience_fixture()
        outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s1, s3))
        assert outcome.repairs == []

    def test_remove_managed_link_reroutes(self):
        g, s1, s2, s3, h = self.resilience_fixture()
        failed = g.links[(s2, TM_NID)]
        outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s2, TM_NID))
        repaired = {r.nid for r in outcome.repairs}
        assert h in repaired and s1 in repaired and s2 in repaired
        new_path = g.shortest_path(h, TM_NID)
        assert all(l.key() != failed.key() for l in new_path)
        assert new_path[-1].dst == TM_NID
        assert g.nodes[h].tmfid == or_fid([l.lid for l in new_path])

    def test_remove_then_readd_restores_shortest(self):
        g, s1, s2, s3, h = self.resilience_fixture()
        original = [l.key() for l in g.shortest_path(h, TM_NID)]
        original_lid = g.links[(s2, TM_NID)].lid
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s2, TM_NID))
        g.handle_link_event(LinkEvent(LinkEventKind.ADD, s2, TM_NID))
        assert [l.key() for l in g.shortest_path(h, TM_NID)] == original
        assert g.links[(s2, TM_NID)].lid == original_lid  # LID survives the flap

    def test_remove_unknown_link(self):
        g = make_graph()
        with pytest.raises(UnknownLink):
            g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, 5, 6))

    def test_rules_for_switch_side(self):
        g, s1, s2, s3, h = self.resilience_fixture()
        outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s2, TM_NID))
        assert any(r.switch_nid == s2 and not r.install for r in outcome.rules)

    def test_no_managed_path_contains_removed_link(self):
        g, s1, s2, s3, h = self.resilience_fixture()
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s2, TM_NID))
        for nid in g.nodes:
            assert all(l.key() != (s2, TM_NID) for l in g.shortest_path(nid, TM_NID))


    def test_remove_regrows_a_subtree_deeper_through_a_non_tree_edge(self):
        # tm <- b1 <- b2 <- b3 and tm <- a1 <- a2 <- a3, with a2 <-> b3 off the
        # tree (b3 steps to b2, the smaller NID).  Once a1 -> tm fails, a1's
        # subtree hangs below b3, two hops deeper.
        g = make_graph(seed=11)
        b1 = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        b2 = attach(g, NodeKind.SDN_SWITCH, b1)
        b3 = attach(g, NodeKind.SDN_SWITCH, b2)
        a1 = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        a2 = attach(g, NodeKind.SDN_SWITCH, a1)
        a3 = attach(g, NodeKind.ICN_NODE, a2)
        link_up(g, a2, b3)
        assert g._next[b3] == b2
        outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, a1, TM_NID))
        via_b = [b3, b2, b1, TM_NID]
        expected = {a2: via_b, a1: [a2] + via_b, a3: [a2] + via_b}
        assert [r.nid for r in outcome.repairs] == sorted(expected)
        for repair in outcome.repairs:
            hops = expected[repair.nid]
            path = g.shortest_path(repair.nid, TM_NID)
            assert [l.dst for l in path] == hops
            assert repair.uplink == path[0].lid
            assert repair.new_tmfid == g.nodes[repair.nid].tmfid == or_fid(
                [l.lid for l in path])
            assert g._dist[repair.nid] == len(hops)
        assert g._next[a1] == a2 and g._next[a3] == a2
        assert {n: g._dist[n] for n in (b1, b2, b3)} == {b1: 1, b2: 2, b3: 3}

    def test_flap_that_cuts_a_subtree_off_restores_the_graph_and_tree(self):
        # tm <- s2 <- s3 <- {s4, h5}: the loss of s2 -> tm cuts all four off.
        g = make_graph(seed=12)
        s2 = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        s3 = attach(g, NodeKind.SDN_SWITCH, s2)
        s4 = attach(g, NodeKind.SDN_SWITCH, s3)
        h5 = attach(g, NodeKind.ICN_NODE, s3)
        before = (g.dump(), dict(g._dist), dict(g._next))
        outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s2, TM_NID))
        assert outcome.repairs == []  # cut off: stale paths kept until the link returns
        for nid in (s2, s3, s4, h5):
            assert nid not in g._dist and nid not in g._next
        assert g._dist == {TM_NID: 0} and g._next == {}
        outcome = g.handle_link_event(LinkEvent(LinkEventKind.ADD, s2, TM_NID))
        assert outcome.repairs == []  # every path is the one held before the flap
        assert (g.dump(), g._dist, g._next) == before


class TestStats:
    def test_empty_report_noop(self):
        g = make_graph()
        attach(g, NodeKind.SDN_SWITCH, TM_NID)
        loads = {k: l.load for k, l in g.links.items()}
        g.record_stats(LinkStatsReport(()))
        assert {k: l.load for k, l in g.links.items()} == loads

    def test_unknown_lid(self):
        g = make_graph()
        with pytest.raises(UnknownLink):
            lid = BitVector.from_bits(256, [1, 2, 3, 4, 5]).value
            g.record_stats(LinkStatsReport((StatsEntry(lid, 0, 10),)))


class TestInvariants:
    def test_global_uniqueness_after_mixed_operations(self):
        g = make_graph(seed=3)
        rng = Random(9)
        committed = [TM_NID]
        for step in range(120):
            action = rng.random()
            if action < 0.6:
                kind = NodeKind.SDN_SWITCH if rng.random() < 0.5 else NodeKind.ICN_NODE
                grant = g.allocate_resources(kind, rng.choice(committed))
                if rng.random() < 0.8:
                    g.commit_grant(grant.nid)
                    committed.append(grant.nid)
                else:
                    g.expire_grant(grant.nid)
            elif len(committed) > 2:
                a, b = rng.sample(committed, 2)
                if (a, b) not in g.links:
                    link_up(g, a, b)
        nids = list(g.nodes)
        assert len(nids) == len(set(nids))
        live = [l.lid for l in g.links.values()]
        live += [r.ilid for r in g.nodes.values() if r.ilid is not None]
        assert len(live) == len(set(live))
        assert g.live_lids() == set(live)

    def test_cached_tmfid_matches_managed_path(self):
        g = make_graph(seed=4)
        s = attach(g, NodeKind.SDN_SWITCH, TM_NID)
        nodes = [attach(g, NodeKind.ICN_NODE, s) for _ in range(5)]
        for nid in nodes:
            path = g.shortest_path(nid, TM_NID)
            assert g.nodes[nid].tmfid == or_fid([l.lid for l in path])
            assert path[0].src == nid
            assert path[-1].dst == TM_NID


def test_dump_contains_nodes_and_hex_lids():
    g = make_graph()
    s = attach(g, NodeKind.SDN_SWITCH, TM_NID)
    pending = g.allocate_resources(NodeKind.ICN_NODE, s).nid

    def hex_of(fid):
        return BitVector(256, fid).to_bytes().hex()

    rows = g.dump().splitlines()
    assert rows[0] == "# nodes: nid kind ilid tmfid"
    # The TM's TMFID is all zeros, not absent; a pending node has none yet.
    assert rows[1] == f"{TM_NID} TM {hex_of(g.nodes[TM_NID].ilid)} {'0' * 64}"
    assert rows[2] == f"{s} SDN_SWITCH - {hex_of(g.nodes[s].tmfid)}"
    assert rows[3] == f"{pending} ICN_NODE {hex_of(g.nodes[pending].ilid)} -"
    assert rows[4] == "# links: src dst lid delay_ms load"
    assert f"{TM_NID} {s} {hex_of(g.links[(TM_NID, s)].lid)} 0.000 0.000000" in rows
