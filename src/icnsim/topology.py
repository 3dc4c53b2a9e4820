"""Topology Manager: authoritative graph, resource allocation, and paths.

The TM is the single writer of the deployment's directed graph.  It hands
out node identifiers (NIDs), per-link LIDs and node-internal iLIDs, caches
each node's FID towards the TM (TMFID) together with the explicit link path
behind it, selects load-aware paths, and repairs paths when links fail.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, List, Optional, Set, Tuple

from .fid import BitVector, Exhausted, Fid, FidParams, LinkId, fid_or, new_lid

TM_NID = 1


class TopologyError(Exception):
    """Base error for topology manager operations."""


class UnknownAttachPoint(TopologyError):
    """Attachment point NID does not exist or is not committed."""


class NoPendingGrant(TopologyError):
    """No tentative grant exists for the given NID."""


class Unreachable(TopologyError):
    """No directed path between the requested endpoints."""


class UnknownLink(TopologyError):
    """Referenced link is not part of the graph."""


class NodeKind(enum.Enum):
    TM = 0
    ICN_NODE = 1
    SDN_SWITCH = 2


class LinkEventKind(enum.Enum):
    ADD = 0
    REMOVE = 1
    UPDATE = 2


@dataclass(frozen=True)
class DirectedLink:
    """One direction of a point-to-point connection, named by its LID."""

    src: int
    dst: int
    lid: LinkId
    delay_ms: float = 0.0
    load: float = 0.0

    def key(self) -> Tuple[int, int]:
        return (self.src, self.dst)


@dataclass
class NodeRecord:
    nid: int
    kind: NodeKind
    ilid: Optional[LinkId] = None
    tmfid: Optional[Fid] = None
    managed_path: Optional[List[DirectedLink]] = None
    committed: bool = False


@dataclass(frozen=True)
class ResourceGrant:
    """Tentative allocation for one attachment: fresh NID, LIDs, optional iLID.

    ``lid`` names the downstream link (attach point -> new node); the reverse
    direction gets ``uplink_lid``.
    """

    nid: int
    lid: LinkId
    uplink_lid: LinkId
    ilid: Optional[LinkId]
    attach_nid: int
    kind: NodeKind


@dataclass(frozen=True)
class LinkEvent:
    kind: LinkEventKind
    src: int
    dst: int
    delay_ms: float = 0.0


@dataclass(frozen=True)
class RepairAction:
    """Recomputed TM path for one node after a topology change."""

    nid: int
    new_tmfid: Fid
    new_path: Tuple[DirectedLink, ...]


RULE_PRIORITY = 100


@dataclass(frozen=True)
class RuleInstallFrame:
    """Flow-rule change on one switch, from the TM to the controller.

    It installs or removes the bitmask rule ``fid & mask == value`` that
    forwards towards ``dst_nid``; a rule is removed by its (mask, value).
    ``nonce`` ties a host-attachment rule to the discovery exchange the
    controller observed, so it can resolve the switch port; 0 when unused.
    The same object is the wire frame (type 0x12).
    """

    install: bool
    nonce: int
    switch_nid: int
    dst_nid: int
    mask: BitVector
    value: BitVector
    priority: int

    @classmethod
    def for_link(cls, install: bool, switch_nid: int, dst_nid: int, lid: LinkId,
                 nonce: int = 0) -> "RuleInstallFrame":
        """The rule forwarding a FID that holds ``lid`` onto the link to ``dst_nid``."""
        return cls(install, nonce, switch_nid, dst_nid, lid, lid, RULE_PRIORITY)


@dataclass(frozen=True)
class StatsEntry:
    lid: LinkId
    byte_count: int
    utilization_ppm: int


@dataclass(frozen=True)
class LinkStatsReport:
    entries: Tuple[StatsEntry, ...]


@dataclass
class LinkEventOutcome:
    repairs: List[RepairAction] = field(default_factory=list)
    rules: List[RuleInstallFrame] = field(default_factory=list)


class TopologyGraph:
    """The TM's directed graph plus identifier registries.

    Single-writer: mutations must be applied sequentially in event order.
    Every link mutation goes through :meth:`_put_link` / :meth:`_pop_link`,
    which keep an adjacency index, so path queries never scan the link table.

    Paths towards the TM are kept as an in-tree: hop counts (``_dist``) plus
    each node's next hop (smallest NID among neighbours one hop closer), so a
    node's path is lexicographically smallest among its shortest paths.  An
    ADD lowers hop counts incrementally; a REMOVE of a tree edge drops the
    tree, and the next read rebuilds it with one BFS.  Either way only the
    nodes below a changed next hop are re-walked.

    A route from the TM to any node, pending or committed, is the node's
    in-tree path reversed (:meth:`path_from_tm`), so it needs no BFS.

    :meth:`shortest_path` between other nodes (node-to-node data) reads an
    in-tree cached per destination (``_trees``): the BFS hop counts towards
    it, plus next hops picked with the same tie-break as a walk first needs
    them.  Trees hold NIDs only, so a path returns the link objects current
    in ``links``.  Every adjacency change (``_put_link``/``_pop_link``)
    drops all cached trees; the next read of a destination rebuilds its
    tree with one BFS.
    """

    def __init__(self, params: FidParams, rng: Random):
        self.params = params
        self.rng = rng
        self.nodes: Dict[int, NodeRecord] = {}
        self.links: Dict[Tuple[int, int], DirectedLink] = {}
        self.down_links: Dict[Tuple[int, int], DirectedLink] = {}
        self.lid_registry: Set[LinkId] = set()
        self.next_nid = 2
        self._free_nids: List[int] = []
        self._pending: Dict[int, ResourceGrant] = {}
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}
        # TM in-tree; _dist is None while it needs a rebuild.
        self._dist: Optional[Dict[int, int]] = {TM_NID: 0}
        self._next: Dict[int, int] = {}
        self._children: Dict[int, Set[int]] = {}
        # In-trees towards other destinations: (hop counts, next hops so far).
        self._trees: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
        tm = NodeRecord(TM_NID, NodeKind.TM, ilid=new_lid(rng, self.lid_registry, params),
                        committed=True)
        tm.tmfid = BitVector.zero(params.m)
        tm.managed_path = []
        self.nodes[TM_NID] = tm
        self._succ[TM_NID], self._pred[TM_NID] = set(), set()

    # -- identifier bookkeeping -------------------------------------------

    def _take_nid(self) -> int:
        if self._free_nids:
            self._free_nids.sort()
            return self._free_nids.pop(0)
        nid = self.next_nid
        self.next_nid += 1
        return nid

    def _release_lid(self, lid: LinkId) -> None:
        self.lid_registry.discard(lid)

    # -- link table and adjacency index ------------------------------------

    def _put_link(self, link: DirectedLink) -> None:
        self.links[link.key()] = link
        self._succ[link.src].add(link.dst)
        self._pred[link.dst].add(link.src)
        self._trees.clear()

    def _pop_link(self, key: Tuple[int, int]) -> DirectedLink:
        link = self.links.pop(key)
        self._succ[key[0]].discard(key[1])
        self._pred[key[1]].discard(key[0])
        self._trees.clear()
        return link

    def out_links(self, nid: int) -> List[DirectedLink]:
        """The node's outgoing links, by destination NID."""
        return [self.links[(nid, dst)] for dst in sorted(self._succ[nid])]

    # -- allocation lifecycle ---------------------------------------------

    def allocate_resources(self, kind: NodeKind, attach_nid: int) -> ResourceGrant:
        """Tentatively allocate NID, link LID pair and (non-switch) iLID.

        Creates the new node record and both directed links attach->new and
        new->attach.  Everything stays tentative until :meth:`commit_grant`.
        """
        attach = self.nodes.get(attach_nid)
        if attach is None or not attach.committed:
            raise UnknownAttachPoint(f"attach point {attach_nid} unknown or not committed")
        drawn: List[LinkId] = []
        try:
            for _ in range(2 if kind == NodeKind.SDN_SWITCH else 3):
                drawn.append(new_lid(self.rng, self.lid_registry, self.params))
        except Exhausted:
            self.lid_registry.difference_update(drawn)
            raise
        down, up = drawn[0], drawn[1]
        ilid = drawn[2] if len(drawn) == 3 else None
        nid = self._take_nid()
        self.nodes[nid] = NodeRecord(nid, kind, ilid=ilid)
        self._succ[nid], self._pred[nid] = set(), set()
        self._put_link(DirectedLink(attach_nid, nid, down))
        self._put_link(DirectedLink(nid, attach_nid, up))
        # The new node is a leaf: it shortens no other node's path.
        if self._dist is not None and attach_nid in self._dist:
            self._dist[nid] = self._dist[attach_nid] + 1
            self._set_next(nid, attach_nid)
        grant = ResourceGrant(nid, down, up, ilid, attach_nid, kind)
        self._pending[nid] = grant
        return grant

    def commit_grant(self, nid: int) -> NodeRecord:
        """Make a tentative grant permanent and cache the node's TM path.

        Raises :class:`Unreachable`, with the grant still pending, if a
        REMOVE has cut the attach point off since the allocation.
        """
        if nid not in self._pending:
            raise NoPendingGrant(f"no pending grant for NID {nid}")
        path = self._tm_path(nid)
        del self._pending[nid]
        record = self.nodes[nid]
        record.committed = True
        self._set_path(record, path)
        return record

    def expire_grant(self, nid: int) -> None:
        """Abandoned handshake: return all tentative identifiers to the pool."""
        grant = self._pending.pop(nid, None)
        if grant is None:
            raise NoPendingGrant(f"no pending grant for NID {nid}")
        del self.nodes[nid]
        for key in ((grant.attach_nid, nid), (nid, grant.attach_nid)):
            if key in self.links:
                self._pop_link(key)
            else:  # a REMOVE took it
                del self.down_links[key]
        del self._succ[nid], self._pred[nid]
        if self._dist is not None and self._dist.pop(nid, None) is not None:
            self._children[self._next.pop(nid)].discard(nid)
        self._release_lid(grant.lid)
        self._release_lid(grant.uplink_lid)
        if grant.ilid is not None:
            self._release_lid(grant.ilid)
        self._free_nids.append(nid)

    def pending_grant(self, nid: int) -> Optional[ResourceGrant]:
        return self._pending.get(nid)

    # -- paths --------------------------------------------------------------

    def _distances_to(self, dst: int, cap: Optional[float] = None) -> Dict[int, int]:
        # BFS over reversed edges gives hop counts towards dst; with a cap,
        # only links loaded at most ``cap`` are used.
        dist = {dst: 0}
        frontier = [dst]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for pred in self._pred[node]:
                    if pred not in dist and (cap is None
                                             or self.links[(pred, node)].load <= cap):
                        dist[pred] = dist[node] + 1
                        nxt.append(pred)
            frontier = nxt
        return dist

    def _step(self, cur: int, dist: Dict[int, int], cap: Optional[float] = None) -> int:
        # Smallest-NID neighbour one hop closer along the BFS gradient.
        return min(n for n in self._succ[cur] if dist.get(n, -1) == dist[cur] - 1
                   and (cap is None or self.links[(cur, n)].load <= cap))

    def _path_via(self, src: int, dst: int, dist: Dict[int, int], nxt: Dict[int, int],
                  cap: Optional[float] = None) -> List[DirectedLink]:
        # Greedy smallest-NID step along the BFS gradient yields the
        # lexicographically smallest shortest path.  ``nxt`` keeps the steps
        # taken, for later walks over the same hop counts.
        path: List[DirectedLink] = []
        cur = src
        while cur != dst:
            step = nxt.get(cur)
            if step is None:
                step = nxt[cur] = self._step(cur, dist, cap)
            path.append(self.links[(cur, step)])
            cur = step
        return path

    def shortest_path(self, src: int, dst: int) -> List[DirectedLink]:
        """Minimum-hop path; ties resolved towards the lexicographically
        smallest sequence of intermediate NIDs, so the result is unique."""
        if src not in self.nodes or dst not in self.nodes:
            raise UnknownAttachPoint(f"unknown endpoint {src if src not in self.nodes else dst}")
        if src == dst:
            return []
        if dst == TM_NID:
            return self._tm_path(src)
        tree = self._trees.get(dst)
        if tree is None:
            tree = self._trees[dst] = (self._distances_to(dst), {})
        dist, nxt = tree
        if src not in dist:
            raise Unreachable(f"no path {src} -> {dst}")
        return self._path_via(src, dst, dist, nxt)

    def _set_next(self, nid: int, nxt: int) -> None:
        old = self._next.get(nid)
        if old is not None:
            self._children[old].discard(nid)
        self._next[nid] = nxt
        self._children.setdefault(nxt, set()).add(nid)

    def _tm_dist(self) -> Dict[int, int]:
        """Hop counts to the TM, rebuilding the in-tree if a REMOVE dropped it."""
        if self._dist is None:
            self._dist = self._distances_to(TM_NID)
            self._next = {}
            self._children = {}
            for nid in self._dist:
                if nid != TM_NID:
                    self._set_next(nid, self._step(nid, self._dist))
        return self._dist

    def _tm_path(self, nid: int) -> List[DirectedLink]:
        """The node's path in the TM in-tree, which ``shortest_path(nid, TM)`` reads."""
        if nid not in self._tm_dist():
            raise Unreachable(f"no path {nid} -> {TM_NID}")
        # Every node in the tree has its next hop, so the walk picks none.
        return self._path_via(nid, TM_NID, self._dist, self._next)

    def path_from_tm(self, nid: int) -> List[DirectedLink]:
        """TM->node route: the node's in-tree path, reversed link by link.

        A pending node's path runs over its tentative uplink.  A physical
        link change reaches the TM as two per-direction events; between
        them a reverse link may be missing, and the route falls back to
        ``shortest_path(TM, nid)``.
        """
        if nid in self._tm_dist():
            route = [self.links.get((l.dst, l.src)) for l in reversed(self._tm_path(nid))]
            if None not in route:
                return route
        return self.shortest_path(TM_NID, nid)

    def _set_path(self, rec: NodeRecord, path: List[DirectedLink]) -> None:
        rec.managed_path = path
        rec.tmfid = fid_or((l.lid for l in path), width=self.params.m)

    def path_fid(self, path: List[DirectedLink], dst_nid: int) -> Fid:
        """A route's FID: the OR of its LIDs and the destination's iLID, if it has one."""
        lids = [l.lid for l in path]
        ilid = self.nodes[dst_nid].ilid
        if ilid is not None:
            lids.append(ilid)
        return fid_or(lids, width=self.params.m)

    def te_select_path(self, src: int, dst: int) -> List[DirectedLink]:
        """Bottleneck-optimal path: minimize max link load, then hops, then
        the lexicographic NID sequence."""
        if src not in self.nodes or dst not in self.nodes:
            raise UnknownAttachPoint(f"unknown endpoint {src if src not in self.nodes else dst}")
        if src == dst:
            return []
        for cap in sorted({l.load for l in self.links.values()}):
            dist = self._distances_to(dst, cap)
            if src in dist:
                return self._path_via(src, dst, dist, {}, cap)
        raise Unreachable(f"no path {src} -> {dst}")  # not even at the highest load

    # -- link events and resilience ----------------------------------------

    def handle_link_event(self, event: LinkEvent) -> LinkEventOutcome:
        """Apply a reported link change, repair affected TM paths.

        REMOVE keeps the LID bound to the (src, dst) pair so a later ADD of
        the same pair revives identical flow rules.  Affected nodes are found
        from the TM in-tree, never by Bloom membership.
        """
        out = LinkEventOutcome()
        key = (event.src, event.dst)
        if event.kind == LinkEventKind.REMOVE:
            if key not in self.links:
                raise UnknownLink(f"link {event.src}->{event.dst} unknown")
            # Only a tree edge carries paths: its loss can lengthen or move
            # just the paths of the subtree below it.  Any other edge leaves
            # every hop count and next hop as it was.
            self._tm_dist()
            below: Set[int] = set()
            if self._next.get(event.src) == event.dst:
                below = self._subtree([event.src])
                self._dist = None  # rebuilt on the next read
            link = self._pop_link(key)
            self.down_links[key] = link
            if self.nodes[event.src].kind == NodeKind.SDN_SWITCH:
                out.rules.append(
                    RuleInstallFrame.for_link(False, event.src, event.dst, link.lid))
            out.repairs = self._repair(below)
        elif event.kind == LinkEventKind.ADD:
            if key in self.links:
                raise TopologyError(f"link {event.src}->{event.dst} already up")
            for nid in (event.src, event.dst):
                rec = self.nodes.get(nid)
                if rec is None or not rec.committed:
                    raise UnknownAttachPoint(f"endpoint {nid} unknown or not committed")
            revived = self.down_links.pop(key, None)
            if revived is not None:
                link = replace(revived, delay_ms=event.delay_ms)
            else:
                link = DirectedLink(event.src, event.dst,
                                    new_lid(self.rng, self.lid_registry, self.params),
                                    delay_ms=event.delay_ms)
            if self.nodes[event.src].kind == NodeKind.SDN_SWITCH:
                out.rules.append(
                    RuleInstallFrame.for_link(True, event.src, event.dst, link.lid))
            out.repairs = self._add_and_repair(link)
        elif event.kind == LinkEventKind.UPDATE:
            link = self.links.get(key)
            if link is None:
                raise UnknownLink(f"link {event.src}->{event.dst} unknown")
            self.links[key] = replace(link, delay_ms=event.delay_ms)
        return out

    def _subtree(self, roots: List[int]) -> Set[int]:
        """The roots and every node whose in-tree path runs through one."""
        below: Set[int] = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid not in below:
                below.add(nid)
                stack.extend(self._children.get(nid, ()))
        return below

    def _repair(self, affected: Set[int]) -> List[RepairAction]:
        """Re-walk the affected committed nodes in NID order; report changed paths."""
        repairs = []
        for nid in sorted(affected):
            rec = self.nodes[nid]
            if not rec.committed:
                continue
            try:
                fresh = self._tm_path(nid)
            except Unreachable:
                continue  # node cut off; stale path kept until a link returns
            if [l.key() for l in fresh] != [l.key() for l in rec.managed_path]:
                self._set_path(rec, fresh)
                repairs.append(RepairAction(nid, rec.tmfid, tuple(fresh)))
        return repairs

    def _add_and_repair(self, link: DirectedLink) -> List[RepairAction]:
        # Bring the link up, then move nodes whose deterministic shortest
        # path changed; restores pre-failure TMFIDs after a flap.  Hop counts
        # can only fall: lower them breadth-first from the link's source,
        # then re-pick the next hop wherever a neighbour got closer.
        dist = self._tm_dist()  # the in-tree of the graph without the link
        self._put_link(link)
        src, dst = link.src, link.dst
        lowered: List[int] = []
        if dst in dist and (src not in dist or dist[dst] + 1 < dist[src]):
            dist[src] = dist[dst] + 1
            lowered.append(src)
            queue = deque(lowered)
            while queue:
                node = queue.popleft()
                for pred in self._pred[node]:
                    if pred not in dist or dist[node] + 1 < dist[pred]:
                        dist[pred] = dist[node] + 1
                        lowered.append(pred)
                        queue.append(pred)
        rechoose = {src}.union(lowered, *(self._pred[n] for n in lowered))
        changed = []
        for nid in rechoose:
            if nid != TM_NID and nid in dist:
                step = self._step(nid, dist)
                if self._next.get(nid) != step:
                    self._set_next(nid, step)
                    changed.append(nid)
        # Only nodes below a changed next hop have a new path.
        return self._repair(self._subtree(changed))

    def record_stats(self, report: LinkStatsReport) -> None:
        """Fold reported per-link utilization into link loads for TE."""
        by_lid = {link.lid: key for key, link in self.links.items()}
        for entry in report.entries:
            key = by_lid.get(entry.lid)
            if key is None:
                raise UnknownLink(f"stats for unknown LID {entry.lid}")
            self.links[key] = replace(self.links[key],
                                      load=entry.utilization_ppm / 1_000_000)

    # -- introspection -------------------------------------------------------

    def live_lids(self) -> Set[LinkId]:
        lids = {link.lid for link in self.links.values()}
        lids.update(rec.ilid for rec in self.nodes.values() if rec.ilid is not None)
        return lids

    def dump(self) -> str:
        """Structured text export: node table then link table, LIDs in hex."""
        lines = ["# nodes: nid kind ilid tmfid"]
        for nid in sorted(self.nodes):
            rec = self.nodes[nid]
            lines.append("%d %s %s %s" % (
                nid, rec.kind.name,
                rec.ilid.to_bytes().hex() if rec.ilid else "-",
                rec.tmfid.to_bytes().hex() if rec.tmfid else "-"))
        lines.append("# links: src dst lid delay_ms load")
        for key in sorted(self.links):
            link = self.links[key]
            lines.append("%d %d %s %.3f %.6f" % (
                link.src, link.dst, link.lid.to_bytes().hex(), link.delay_ms, link.load))
        return "\n".join(lines) + "\n"
