"""TM path upkeep against a from-scratch oracle over random link event sequences.

A link event names a cable, so after every attach, ADD and REMOVE the
graph's ``links`` and ``down_links`` each hold a link exactly when they
hold its reverse, and the oracle's graph is ``links``.  Each committed node
that can still reach the TM must hold the lexicographically smallest
shortest path, recomputed here from networkx hop counts, and the TMFID
OR-ed from it.  The FID of the TM's route to any node, pending ones
included, is ORed from that path reversed, plus the node's iLID, and a
node the oracle cannot reach has none.  A sample of
``shortest_path`` reads, towards the TM and towards other nodes, must give
the same path, and ``data_fid`` the OR of that path's LIDs plus the
destination's iLID, so a per-destination tree or a composed FID left over
from an earlier event shows.  The TM in-tree itself (hop counts and next
hops) must equal the oracle's for every node, pending ones included: it
persists across REMOVEs, which re-grow only the subtree a removed tree edge
held.  For a sample of nodes, that subtree as the graph finds it must be
the node's descendants under the inverse of its next hops.
"""

from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from icnsim.fid import BitVector, FidParams, fid_or
from icnsim.topology import (LinkEvent, LinkEventKind, NodeKind, TM_NID, TopologyGraph,
                             UnknownAttachPoint, UnknownLink, Unreachable)
from test_topology import link_up

nx = pytest.importorskip("networkx")


def or_fid(g, lids):
    """The oracle FID of int LIDs: ``fid_or`` of their vectors at the graph's width."""
    m = g.params.m
    return fid_or([BitVector(m, lid) for lid in lids], width=m).value


def oracle_path(graph, hops, nid, dst=TM_NID):
    """Smallest-NID next hop along networkx's hop counts, from scratch."""
    path, cur = [], nid
    while cur != dst:
        step = min(n for n in graph.successors(cur) if hops.get(n) == hops[cur] - 1)
        path.append((cur, step))
        cur = step
    return path


def oracle_hops(g):
    graph = nx.DiGraph()
    graph.add_nodes_from(g.nodes)
    graph.add_edges_from(g.links)
    return graph, nx.shortest_path_length(graph, target=TM_NID)


def check_in_tree(g, graph, hops, rng):
    """The TM in-tree is what a fresh BFS gives; a cut-off node is in none of it.

    ``_subtree`` of sampled nodes, the TM and cut-off nodes included, is
    each one's descendants under the inverse of ``_next``.
    """
    assert g._dist == hops
    assert g._next == {nid: oracle_path(graph, hops, nid)[0][1] for nid in hops if nid != TM_NID}
    inverse = {}
    for nid, step in g._next.items():
        inverse.setdefault(step, []).append(nid)
    for root in rng.sample(sorted(g.nodes), min(3, len(g.nodes))):
        below, stack = set(), [root]
        while stack:
            nid = stack.pop()
            below.add(nid)
            stack.extend(inverse.get(nid, ()))
        assert g._subtree([root]) == below, f"subtree of {root}"


def check_route(g, graph, hops, nid):
    """The FID of a TM->node message, against the route the oracle picks."""
    if nid not in hops:
        with pytest.raises(Unreachable):
            g.fid_from_tm(nid)
        return
    lids = [g.links[(b, a)].lid for a, b in oracle_path(graph, hops, nid)]
    if g.nodes[nid].ilid is not None:
        lids.append(g.nodes[nid].ilid)
    assert g.fid_from_tm(nid) == or_fid(g, lids), f"route to {nid}"


def check_paths(g, rng=None):
    rng = rng or Random(0)
    for table in (g.links, g.down_links):  # whole cables only, up or down
        assert all((b, a) in table for a, b in table)
    graph, hops = oracle_hops(g)
    check_in_tree(g, graph, hops, rng)
    for nid, rec in g.nodes.items():
        if nid != TM_NID:
            check_route(g, graph, hops, nid)
        if not rec.committed or nid not in hops:
            continue  # a cut-off node keeps its stale TMFID until a link returns
        keys = oracle_path(graph, hops, nid)
        assert [l.key() for l in g.shortest_path(nid, TM_NID)] == keys, f"node {nid}"
        assert len(keys) == nx.shortest_path_length(graph, nid, TM_NID)
        assert rec.tmfid == or_fid(g, [g.links[key].lid for key in keys])
    check_shortest_paths(g, graph, rng)


def check_shortest_paths(g, graph, rng):
    """``shortest_path`` and ``data_fid`` for sampled committed pairs, some towards the TM."""
    committed = sorted(n for n, rec in g.nodes.items() if rec.committed)
    others = [n for n in committed if n != TM_NID]
    sources = {TM_NID: rng.sample(others, min(2, len(others)))}
    for b in rng.sample(others, min(3, len(others))):
        sources[b] = rng.sample(committed, min(3, len(committed)))
    for b, srcs in sources.items():
        hops = nx.shortest_path_length(graph, target=b)
        for a in srcs:
            if a not in hops:
                for read in (g.shortest_path, g.data_fid):
                    with pytest.raises(Unreachable):
                        read(a, b)
                continue
            path = g.shortest_path(a, b)
            keys = oracle_path(graph, hops, a, b)
            assert [l.key() for l in path] == keys, f"{a} -> {b}"
            assert all(l is g.links[l.key()] for l in path)
            lids = [g.links[key].lid for key in keys]
            if g.nodes[b].ilid is not None:
                lids.append(g.nodes[b].ilid)
            assert g.data_fid(a, b) == or_fid(g, lids), f"data {a} -> {b}"
    unknown = max(g.nodes) + 1
    for a, b in ((unknown, TM_NID), (TM_NID, unknown), (unknown, unknown)):
        for read in (g.shortest_path, g.data_fid):
            with pytest.raises(UnknownAttachPoint):
                read(a, b)


def attach(g, pick):
    _, hops = oracle_hops(g)
    reachable = sorted(n for n, rec in g.nodes.items() if rec.committed and n in hops)
    kind = NodeKind.SDN_SWITCH if pick % 2 else NodeKind.ICN_NODE
    grant = g.allocate_resources(kind, reachable[pick % len(reachable)])
    if pick % 5 == 0:
        g.expire_grant(grant.nid)
    else:
        g.commit_grant(grant.nid)


def attach_to(g, nid):
    grant = g.allocate_resources(NodeKind.SDN_SWITCH, nid)
    g.commit_grant(grant.nid)
    return grant.nid


def link_event(g, op, pick):
    committed = sorted(n for n, rec in g.nodes.items() if rec.committed)
    if op == "remove" and g.links:
        key = sorted(g.links)[pick % len(g.links)]
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, *key))
    elif op == "restore" and g.down_links:
        key = sorted(g.down_links)[pick % len(g.down_links)]
        g.handle_link_event(LinkEvent(LinkEventKind.ADD, *key))
    elif op == "add" and len(committed) > 1:
        a, b = Random(pick).sample(committed, 2)
        if (a, b) not in g.links:
            g.handle_link_event(LinkEvent(LinkEventKind.ADD, a, b))


OPS = st.tuples(st.sampled_from(["attach", "add", "remove", "restore"]),
                st.integers(0, 2 ** 16))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32), st.lists(st.integers(0, 2 ** 16), min_size=4, max_size=16),
       st.lists(OPS, min_size=10, max_size=60))
def test_paths_match_oracle_after_every_event(seed, tree, ops):
    g = TopologyGraph(FidParams(m=64, k=3), Random(seed))
    reads = Random(seed)
    for pick in tree:
        attach(g, pick)
        check_paths(g, reads)
    for op, pick in ops:
        if op == "attach":
            attach(g, pick)
        else:
            link_event(g, op, pick)
        check_paths(g, reads)


def test_add_moves_a_node_whose_hop_count_stays():
    # tm <- s2 <- s3 and tm <- s4 <- s5, with s5 <-> s3.  Once s3 reaches the
    # TM directly, s5 keeps 2 hops but must switch to the smaller NID s3.
    # The ADD names the cable s3 - tm from the TM's end.
    g = TopologyGraph(FidParams(m=256, k=5), Random(3))
    s2 = attach_to(g, TM_NID)
    s3 = attach_to(g, s2)
    s4 = attach_to(g, TM_NID)
    s5 = attach_to(g, s4)
    link_up(g, s5, s3)
    assert s3 < s4
    assert [l.dst for l in g.shortest_path(s5, TM_NID)] == [s4, TM_NID]
    outcome = g.handle_link_event(LinkEvent(LinkEventKind.ADD, TM_NID, s3))
    assert [r.nid for r in outcome.repairs] == [s3, s5]
    assert [l.dst for l in g.shortest_path(s5, TM_NID)] == [s3, TM_NID]
    check_paths(g)


def test_flap_sequence_on_a_ladder():
    # Fixed example: two parallel chains joined by rungs, each rung flapped.
    g = TopologyGraph(FidParams(m=256, k=5), Random(7))
    left, right = [TM_NID], [TM_NID]
    for _ in range(4):
        for chain in (left, right):
            chain.append(attach_to(g, chain[-1]))
    for a, b in zip(left[1:], right[1:]):
        link_up(g, a, b)
        check_paths(g)
    for a, b in zip(left[1:], right[1:]):
        for key in ((a, b), (b, a)):  # named from each end, back from the other
            g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, *key))
            check_paths(g)
            g.handle_link_event(LinkEvent(LinkEventKind.ADD, *key[::-1]))
            check_paths(g)
    for a, b in zip(left, left[1:]):
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, b, a))
        check_paths(g)


def test_remove_repairs_exactly_the_subtree_below_a_tree_edge():
    # tm <- s2 <- s3 <- {s4, s5}, s4 <- s6, plus tm <- s7 <- s8 with s8 <-> s4.
    g = TopologyGraph(FidParams(m=256, k=5), Random(5))
    s2 = attach_to(g, TM_NID)
    s3 = attach_to(g, s2)
    s4 = attach_to(g, s3)
    s5 = attach_to(g, s3)
    s6 = attach_to(g, s4)
    s7 = attach_to(g, TM_NID)
    s8 = attach_to(g, s7)
    link_up(g, s8, s4)
    # A cable off the tree, named from either end: no hop count or next hop
    # changes when it goes down or comes back.
    for key in ((s4, s8), (s8, s4)):
        assert g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, *key)).repairs == []
        check_paths(g)
        assert add(g, *key) == []
    outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s3, s2))
    # s3's subtree is s3, s4, s5 and s6; s4 and s6 reroute via s8, s3 and s5
    # via s4.  No node outside the subtree moves, and the cable is down from
    # its other end too.
    assert [r.nid for r in outcome.repairs] == [s3, s4, s5, s6]
    assert [l.dst for l in g.shortest_path(s4, TM_NID)] == [s8, s7, TM_NID]
    with pytest.raises(UnknownLink):
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s2, s3))
    check_paths(g)


def test_remove_regrows_a_member_through_its_smallest_tied_successor():
    # tm <- s2 <- s9, with s9 <-> s3 and s9 <-> s8, where s2 .. s8 all hang off
    # the TM.  Once s9 -> s2 fails, s9 is two hops out via s3 or s8 and must
    # step to the smaller NID, s3, though a set of s9's successors lists s8
    # first (8 and 3 fall in hash slots 0 and 3).
    g = TopologyGraph(FidParams(m=256, k=5), Random(9))
    leaves = [attach_to(g, TM_NID) for _ in range(7)]
    s2, s3, s8 = leaves[0], leaves[1], leaves[-1]
    s9 = attach_to(g, s2)
    link_up(g, s9, s3)
    link_up(g, s9, s8)
    assert (s2, s3, s8, s9) == (2, 3, 8, 9) and g._next[s9] == s2
    outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s9, s2))
    assert [r.nid for r in outcome.repairs] == [s9]
    assert g._next[s9] == s3 and g._dist[s9] == 2
    check_paths(g)


def add(g, src, dst):
    return g.handle_link_event(LinkEvent(LinkEventKind.ADD, src, dst)).repairs


def test_add_that_gives_no_path_moves_nothing():
    # tm <- s2 <- s3 <- s5, tm <- s4; s2, s3 and s5 are cut off once the
    # cable s2 - tm fails.  A cable s2 - s5 joins two cut-off nodes, named
    # from either end.
    g = TopologyGraph(FidParams(m=256, k=5), Random(11))
    s2 = attach_to(g, TM_NID)
    s3 = attach_to(g, s2)
    attach_to(g, TM_NID)
    s5 = attach_to(g, s3)
    g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s2, TM_NID))
    assert {s2, s3, s5}.isdisjoint(g._dist)
    tree = (dict(g._dist), dict(g._next))
    for key in ((s2, s5), (s5, s2)):
        assert add(g, *key) == []
        assert (g._dist, g._next) == tree
        check_paths(g)
        g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, *key))


def test_tie_add_moves_its_source_only_to_a_smaller_nid():
    # tm <- s2 <- s6 and tm <- s3 <- s4 <- s5.  A cable s4 - s2 ties s4's 2
    # hops with a smaller next hop: s4 and the s5 below it move, and nothing
    # else.  A cable s6 - s3 ties s6's 2 hops with a larger one: nothing moves.
    # The ADDs name the cables from either end.
    g = TopologyGraph(FidParams(m=256, k=5), Random(13))
    s2 = attach_to(g, TM_NID)
    s3 = attach_to(g, TM_NID)
    s4 = attach_to(g, s3)
    s5 = attach_to(g, s4)
    s6 = attach_to(g, s2)
    dist, nxt = dict(g._dist), dict(g._next)
    assert [r.nid for r in add(g, s2, s4)] == [s4, s5]
    assert g._dist == dist and g._next == {**nxt, s4: s2}
    check_paths(g)
    nxt = dict(g._next)
    assert add(g, s6, s3) == []
    assert g._dist == dist and g._next == nxt
    check_paths(g)


def test_lowering_add_moves_a_neighbour_that_keeps_its_hop_count():
    # tm <- s2 <- s3 <- s4, and tm <- s5 <- s6 <- s7 with s7 <-> s4.  Once
    # the cable s3 - tm is up, s3 and s4 are lowered, and s7 keeps 3 hops
    # but must step to the lowered s4, a smaller NID than its next hop s6.
    g = TopologyGraph(FidParams(m=256, k=5), Random(17))
    s2 = attach_to(g, TM_NID)
    s3 = attach_to(g, s2)
    s4 = attach_to(g, s3)
    s5 = attach_to(g, TM_NID)
    s6 = attach_to(g, s5)
    s7 = attach_to(g, s6)
    link_up(g, s7, s4)
    assert g._next[s7] == s6 and g._dist[s7] == 3 > g._dist[s4] - 1
    repairs = add(g, TM_NID, s3)
    assert [r.nid for r in repairs] == [s3, s4, s7]
    assert (g._dist[s3], g._dist[s4], g._dist[s7]) == (1, 2, 3)
    assert g._next[s7] == s4
    check_paths(g)


def test_cable_remove_moves_paths_at_once_and_its_add_restores_them():
    # tm <- s2 <- s3 with s3 <-> s4 <- tm, and s5 behind s4 alone.  A REMOVE
    # of s2 - s3, named from either end, moves s3 to s4 at once, takes both
    # directions out and leaves the TM's route to s3 over cables that are
    # up; an ADD named from the other end restores the graph as it was.
    g = TopologyGraph(FidParams(m=256, k=5), Random(19))
    s2 = attach_to(g, TM_NID)
    s3 = attach_to(g, s2)
    s4 = attach_to(g, TM_NID)
    s5 = attach_to(g, s4)
    link_up(g, s3, s4)
    up = [g.links[key].lid for key in ((s2, s3), (TM_NID, s2))]
    via_s4 = [g.links[key].lid for key in ((s4, s3), (TM_NID, s4))]

    def state():
        return (dict(g._dist), dict(g._next), {n: r.tmfid for n, r in g.nodes.items()},
                {n: g.out_links(n) for n in g.nodes}, dict(g.links))

    for first in ((s2, s3), (s3, s2)):
        assert g._next[s3] == s2 and g.fid_from_tm(s3) == or_fid(g, up)
        before = state()
        outcome = g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, *first))
        assert [r.nid for r in outcome.repairs] == [s3]
        assert g._next[s3] == s4 and g.fid_from_tm(s3) == or_fid(g, via_s4)
        assert {first, first[::-1]} == set(g.down_links)
        assert s3 not in g._adj[s2] and s2 not in g._adj[s3]
        check_paths(g)
        assert [r.nid for r in add(g, *first[::-1])] == [s3]
        assert state() == before and not g.down_links
        check_paths(g)
    g.handle_link_event(LinkEvent(LinkEventKind.REMOVE, s4, s5))
    with pytest.raises(Unreachable):
        g.fid_from_tm(s5)
    with pytest.raises(Unreachable):
        g.fid_from_tm(max(g.nodes) + 1)
    check_paths(g)
