"""Topology Manager: authoritative graph, resource allocation, and paths.

The TM is the single writer of the deployment's graph; a link event names
a cable, both directions at once.  It hands out node identifiers
(NIDs), per-link LIDs and node-internal iLIDs, caches each node's FID
towards the TM (TMFID), composed from its next hop's along the TM in-tree,
selects load-aware paths, and repairs paths when links fail.  One grower
(``TopologyGraph._grow``, a BFS expanded level by level in NID order)
builds every in-tree and re-grows the TM in-tree after a REMOVE.
"""

from __future__ import annotations

import enum
from collections import deque
from math import inf
from dataclasses import dataclass, field, replace
from random import Random
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .fid import BitVector, Exhausted, FidParams, new_lid
from .record import record

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


@record
class DirectedLink:
    """One direction of a point-to-point connection, named by its LID."""

    src: int
    dst: int
    lid: int
    delay_ms: float = 0.0
    load: float = 0.0

    def key(self) -> Tuple[int, int]:
        return (self.src, self.dst)


@dataclass(slots=True)
class NodeRecord:
    nid: int
    kind: NodeKind
    ilid: Optional[int] = None
    tmfid: Optional[int] = None  # the TM's is 0

    @property
    def committed(self) -> bool:
        """Only :meth:`TopologyGraph.commit_grant` gives a node its TMFID."""
        return self.tmfid is not None


@record
class ResourceGrant:
    """Tentative allocation for one attachment: fresh NID, LIDs, optional iLID.

    ``lid`` names the downstream link (attach point -> new node); the reverse
    direction gets ``uplink_lid``.
    """

    nid: int
    lid: int
    uplink_lid: int
    ilid: Optional[int]
    attach_nid: int
    kind: NodeKind


@record
class LinkEvent:
    """The cable src - dst went down or came up; a new cable's src -> dst LID is drawn first."""

    kind: LinkEventKind
    src: int
    dst: int
    delay_ms: float = 0.0


@record
class RepairAction:
    """A node's changed TMFID after a topology change; ``uplink`` is its first hop's LID."""

    nid: int
    new_tmfid: int
    uplink: int


RULE_PRIORITY = 100


@record
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
    mask: int
    value: int
    priority: int

    @classmethod
    def for_link(cls, install: bool, switch_nid: int, dst_nid: int, lid: int,
                 nonce: int = 0) -> "RuleInstallFrame":
        """The rule forwarding a FID that holds ``lid`` onto the link to ``dst_nid``."""
        return cls(install, nonce, switch_nid, dst_nid, lid, lid, RULE_PRIORITY)


@record
class StatsEntry:
    lid: int
    byte_count: int
    utilization_ppm: int


@record
class LinkStatsReport:
    entries: Tuple[StatsEntry, ...]


@dataclass
class LinkEventOutcome:
    repairs: List[RepairAction] = field(default_factory=list)
    rules: List[RuleInstallFrame] = field(default_factory=list)


class TopologyGraph:
    """The TM's graph of directed links plus identifier registries.

    Single-writer: mutations must be applied sequentially in event order.
    A link event names a cable: :meth:`_put_cable` / :meth:`_pop_cable` move
    both its directions together and keep ``_adj``, a symmetric index of the
    cables that are up, so ``links`` and ``down_links`` each hold both
    directions of a cable or neither, and paths never scan ``links``.

    Paths towards the TM are kept as an in-tree: hop counts (``_dist``) plus
    each node's next hop (smallest NID among neighbours one hop closer), so a
    node's path is lexicographically smallest among its shortest paths.  A
    node's children are the neighbours whose next hop it is; no index of
    them is kept.  An ADD runs from the cable's end
    farther from the TM, src, to dst: if src gets no fewer hops it moves
    only on a tie won by a smaller dst; else hop counts fall breadth-first
    from src, only lowered nodes re-pick with :meth:`_step`, and a node
    beside them that keeps its hop count can only switch to a smaller
    lowered neighbour.  A REMOVE of a tree cable drops the subtree below
    the end whose next hop it was (:meth:`_subtree`) and re-grows it with
    :meth:`_grow` from its members' neighbours outside it: every other node
    keeps its hop count and next hop, since its path avoids the cable and a
    removal shortens no path.  The tree always equals what a fresh BFS
    would give, and it is the only record of TM paths: a node's TMFID is
    its next hop's OR the LID of the link there, so only the TMFIDs below a
    changed next hop are recomposed, and only changed ones are reported.

    The FID of a message from the TM to any node, pending or committed, is
    ORed along the node's in-tree path reversed (:meth:`fid_from_tm`); its
    cables are up, so every reversed link is too and no search is needed.

    :meth:`shortest_path` reads an in-tree per destination (``_trees``):
    the TM in-tree for the TM, and for any other node the hop counts and
    next hops that :meth:`_grow` gives from it alone.  Trees hold
    NIDs only, so a path returns the link objects current in ``links``.

    Data FIDs are composed, not walked: :meth:`data_fid` gives the
    destination's iLID (zero without one) to the destination itself, and
    to every other member its next hop's data FID OR the LID of the link
    there, the rule TMFIDs follow too.  Each tree memoises the data FIDs
    composed so far, so a read walks only down to the first member already
    known.  Every change to ``_adj``
    (``_put_cable``/``_pop_cable``) makes all trees stale, FIDs included; the
    next read of a destination replaces its tree, with one BFS (none for
    the TM).  A stale tree is freed there, not at the change, so a link
    event does not pay to free the FIDs a pass of data composed; at most
    one tree per node is kept, and a node's tree goes with the node.
    """

    def __init__(self, params: FidParams, rng: Random):
        self.params = params
        self.rng = rng
        self.nodes: Dict[int, NodeRecord] = {}
        self.links: Dict[Tuple[int, int], DirectedLink] = {}
        self.down_links: Dict[Tuple[int, int], DirectedLink] = {}
        self.lid_registry: Set[int] = set()
        self.next_nid = 2
        self._free_nids: List[int] = []
        self._pending: Dict[int, ResourceGrant] = {}
        self._adj: Dict[int, Set[int]] = {TM_NID: set()}  # the cables that are up
        # TM in-tree: hop counts and next hops.
        self._dist: Dict[int, int] = {TM_NID: 0}
        self._next: Dict[int, int] = {}
        # In-trees by destination: (epoch, hop counts, next hops, data FIDs
        # composed so far); a tree from before the last adjacency change is
        # stale.
        self._epoch = 0
        self._trees: Dict[int, tuple] = {}
        self.nodes[TM_NID] = NodeRecord(TM_NID, NodeKind.TM,
                                        ilid=new_lid(rng, self.lid_registry, params),
                                        tmfid=0)

    # -- identifier bookkeeping -------------------------------------------

    def _take_nid(self) -> int:
        if self._free_nids:
            self._free_nids.sort()
            return self._free_nids.pop(0)
        nid = self.next_nid
        self.next_nid += 1
        return nid

    # -- link table and adjacency index ------------------------------------

    def _draw_lids(self, count: int) -> List[int]:
        """``count`` fresh LIDs, or none: on :class:`Exhausted` those drawn are released."""
        drawn: List[int] = []
        try:
            for _ in range(count):
                drawn.append(new_lid(self.rng, self.lid_registry, self.params))
        except Exhausted:
            self.lid_registry.difference_update(drawn)
            raise
        return drawn

    def _put_cable(self, fwd: DirectedLink, rev: DirectedLink) -> None:
        self.links[fwd.key()], self.links[rev.key()] = fwd, rev
        self._adj[fwd.src].add(fwd.dst)
        self._adj[fwd.dst].add(fwd.src)
        self._epoch += 1

    def _pop_cable(self, a: int, b: int) -> Tuple[DirectedLink, DirectedLink]:
        self._adj[a].discard(b)
        self._adj[b].discard(a)
        self._epoch += 1
        return self.links.pop((a, b)), self.links.pop((b, a))

    def out_links(self, nid: int) -> List[DirectedLink]:
        """The node's outgoing links over the cables that are up, by destination NID."""
        return [self.links[(nid, dst)] for dst in sorted(self._adj[nid])]

    # -- allocation lifecycle ---------------------------------------------

    def allocate_resources(self, kind: NodeKind, attach_nid: int) -> ResourceGrant:
        """Tentatively allocate NID, link LID pair and (non-switch) iLID.

        Creates the new node record and both directed links attach->new and
        new->attach.  Everything stays tentative until :meth:`commit_grant`.
        """
        attach = self.nodes.get(attach_nid)
        if attach is None or not attach.committed:
            raise UnknownAttachPoint(f"attach point {attach_nid} unknown or not committed")
        drawn = self._draw_lids(2 if kind == NodeKind.SDN_SWITCH else 3)
        down, up = drawn[0], drawn[1]
        ilid = drawn[2] if len(drawn) == 3 else None
        nid = self._take_nid()
        self.nodes[nid] = NodeRecord(nid, kind, ilid=ilid)
        self._adj[nid] = set()
        self._put_cable(DirectedLink(attach_nid, nid, down), DirectedLink(nid, attach_nid, up))
        # The new node is a leaf: it shortens no other node's path.
        if attach_nid in self._dist:
            self._dist[nid] = self._dist[attach_nid] + 1
            self._next[nid] = attach_nid
        grant = ResourceGrant(nid, down, up, ilid, attach_nid, kind)
        self._pending[nid] = grant
        return grant

    def commit_grant(self, nid: int) -> NodeRecord:
        """Make a tentative grant permanent and cache the node's TMFID.

        Raises :class:`Unreachable`, with the grant still pending, if a
        REMOVE has cut the attach point off since the allocation.
        """
        if nid not in self._pending:
            raise NoPendingGrant(f"no pending grant for NID {nid}")
        if nid not in self._dist:
            raise Unreachable(f"no path {nid} -> {TM_NID}")
        del self._pending[nid]
        record = self.nodes[nid]
        record.tmfid = self._tmfid(nid)
        return record

    def expire_grant(self, nid: int) -> None:
        """Abandoned handshake: return all tentative identifiers to the pool."""
        grant = self._pending.pop(nid, None)
        if grant is None:
            raise NoPendingGrant(f"no pending grant for NID {nid}")
        del self.nodes[nid]
        key = (grant.attach_nid, nid)
        if key in self.links:
            self._pop_cable(*key)
        else:  # a REMOVE took the cable
            del self.down_links[key], self.down_links[key[::-1]]
        del self._adj[nid]
        self._trees.pop(nid, None)
        self._dist.pop(nid, None)
        self._next.pop(nid, None)
        self.lid_registry.difference_update((grant.lid, grant.uplink_lid, grant.ilid))
        self._free_nids.append(nid)

    def pending_grant(self, nid: int) -> Optional[ResourceGrant]:
        return self._pending.get(nid)

    # -- paths --------------------------------------------------------------

    def _distances_to(self, dst: int, cap: Optional[float] = None
                      ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Hop counts towards ``dst`` and each node's next hop: :meth:`_grow` from ``dst``."""
        dist = {dst: 0}
        nxt: Dict[int, int] = {}
        self._grow(dist, nxt, [dst], cap)
        return dist, nxt

    def _grow(self, dist: Dict[int, int], nxt: Dict[int, int], anchors: Iterable[int],
              cap: Optional[float] = None) -> None:
        """Grow an in-tree over live cables from ``anchors``, whose hop counts are final.

        Each anchor enters at its own hop count in ``dist``; levels are
        expanded in increasing hop count, each in NID order, and a node
        joins only if it has no hop count yet.  So the node that first
        reaches a neighbour is the smallest NID one hop closer: the
        tie-break of :meth:`_step`.  With a cap, only links loaded at most
        ``cap`` are used.
        """
        waiting = sorted(anchors, key=dist.__getitem__, reverse=True)  # nearest last
        frontier: List[int] = []
        hops = dist[waiting[-1]] if waiting else 0
        adj = self._adj
        while frontier or waiting:
            while waiting and dist[waiting[-1]] == hops:
                frontier.append(waiting.pop())
            frontier.sort()
            hops += 1
            level: List[int] = []
            for node in frontier:
                preds = adj[node]
                if cap is not None:
                    preds = [p for p in preds if self.links[(p, node)].load <= cap]
                for pred in preds:
                    if pred not in dist:
                        dist[pred] = hops
                        nxt[pred] = node
                        level.append(pred)
            frontier = level

    def _step(self, cur: int, dist: Dict[int, int]) -> int:
        # Smallest-NID neighbour one hop closer along the BFS gradient.
        return min(n for n in self._adj[cur] if dist.get(n, -1) == dist[cur] - 1)

    def _path_via(self, src: int, dst: int, nxt: Dict[int, int]) -> List[DirectedLink]:
        # Following the smallest-NID next hops yields the lexicographically
        # smallest shortest path.
        path: List[DirectedLink] = []
        cur = src
        while cur != dst:
            step = nxt[cur]
            path.append(self.links[(cur, step)])
            cur = step
        return path

    def _tree(self, src: int, dst: int) -> tuple:
        """``dst``'s current in-tree, built on first read; raises if ``src`` is not in it."""
        if src not in self.nodes or dst not in self.nodes:
            raise UnknownAttachPoint(f"unknown endpoint {src if src not in self.nodes else dst}")
        tree = self._trees.get(dst)
        if tree is None or tree[0] != self._epoch:
            ilid = self.nodes[dst].ilid
            fids = {dst: 0 if ilid is None else ilid}
            if dst == TM_NID:
                tree = (self._epoch, self._dist, self._next, fids)
            else:
                tree = (self._epoch, *self._distances_to(dst), fids)
            self._trees[dst] = tree
        if src not in tree[1]:
            raise Unreachable(f"no path {src} -> {dst}")
        return tree

    def shortest_path(self, src: int, dst: int) -> List[DirectedLink]:
        """Minimum-hop path; ties resolved towards the lexicographically
        smallest sequence of intermediate NIDs, so the result is unique."""
        return self._path_via(src, dst, self._tree(src, dst)[2])

    def data_fid(self, src: int, dst: int) -> int:
        """The FID of a data packet from ``src`` to ``dst``.

        It equals the OR of the LIDs on ``shortest_path(src, dst)`` and
        ``dst``'s iLID, if it has one, and raises as ``shortest_path`` does,
        but it is composed down ``dst``'s in-tree and kept there, so a
        repeated read is one lookup.
        """
        _, _, nxt, fids = self._tree(src, dst)
        fid = fids.get(src)
        if fid is None:
            walked = []
            cur = src
            while (fid := fids.get(cur)) is None:
                walked.append(cur)
                cur = nxt[cur]
            links = self.links
            for nid in reversed(walked):
                fid = fids[nid] = fid | links[(nid, nxt[nid])].lid
        return fid

    def fid_from_tm(self, nid: int) -> int:
        """The FID of a TM->node message: the OR of the node's iLID, if any,
        and the LIDs of its in-tree path reversed.

        The in-tree runs over cables that are up, so every reversed link is
        up too; a pending node's route runs over its tentative downlink.  A node
        outside the in-tree, cut off or unknown, raises :class:`Unreachable`.
        """
        if nid not in self._dist:
            raise Unreachable(f"no path {TM_NID} -> {nid}")
        ilid = self.nodes[nid].ilid
        fid = 0 if ilid is None else ilid
        while nid != TM_NID:
            nxt = self._next[nid]
            fid |= self.links[(nxt, nid)].lid
            nid = nxt
        return fid

    def _tmfid(self, nid: int) -> int:
        """The TMFID of an in-tree node: its next hop's OR the LID of the link there."""
        nxt = self._next[nid]
        return self.nodes[nxt].tmfid | self.links[(nid, nxt)].lid

    def te_select_path(self, src: int, dst: int) -> List[DirectedLink]:
        """Bottleneck-optimal path: minimize max link load, then hops, then
        the lexicographic NID sequence."""
        if src not in self.nodes or dst not in self.nodes:
            raise UnknownAttachPoint(f"unknown endpoint {src if src not in self.nodes else dst}")
        if src == dst:
            return []
        for cap in sorted({l.load for l in self.links.values()}):
            dist, nxt = self._distances_to(dst, cap)
            if src in dist:
                return self._path_via(src, dst, nxt)
        raise Unreachable(f"no path {src} -> {dst}")  # not even at the highest load

    # -- link events and resilience ----------------------------------------

    def handle_link_event(self, event: LinkEvent) -> LinkEventOutcome:
        """Apply a reported change of the cable src - dst, repair affected TM paths.

        REMOVE keeps each direction's LID bound to its pair, so a later ADD
        revives identical flow rules; a new cable's ADD draws both LIDs or,
        out of LIDs, changes nothing.  Affected nodes are found from the TM
        in-tree, never by Bloom membership.  The outcome's rules are the
        cable's :meth:`cable_rules`: installs for an ADD, removals for a REMOVE.
        """
        out = LinkEventOutcome()
        a, b = event.src, event.dst
        if event.kind == LinkEventKind.REMOVE:
            if (a, b) not in self.links:
                raise UnknownLink(f"link {a}-{b} unknown")
            links = self._pop_cable(a, b)
            self.down_links[(a, b)], self.down_links[(b, a)] = links
            # Only a tree cable carries paths: its loss can move just the
            # subtree below the end whose next hop it was, which leaves the
            # tree and is re-grown from its members' neighbours outside it; a
            # node already cut off reaches none.  Anything else moves nothing.
            dist, nxt = self._dist, self._next
            child = next((c for c, p in ((a, b), (b, a)) if nxt.get(c) == p), None)
            below = set() if child is None else self._subtree([child])
            for nid in below:
                del dist[nid], nxt[nid]
            self._grow(dist, nxt, {s for nid in below for s in self._adj[nid] if s in dist})
            out.repairs = self._repair(below)
        else:
            if (a, b) in self.links:
                raise TopologyError(f"link {a}-{b} already up")
            for nid in (a, b):
                rec = self.nodes.get(nid)
                if rec is None or not rec.committed:
                    raise UnknownAttachPoint(f"endpoint {nid} unknown or not committed")
            if (a, b) in self.down_links:  # revived with its LIDs, so its rules, and loads
                fwd, rev = self.down_links.pop((a, b)), self.down_links.pop((b, a))
                lids, loads = (fwd.lid, rev.lid), (fwd.load, rev.load)
            else:
                lids, loads = self._draw_lids(2), (0.0, 0.0)
            links = (DirectedLink(a, b, lids[0], event.delay_ms, loads[0]),
                     DirectedLink(b, a, lids[1], event.delay_ms, loads[1]))
            self._put_cable(*links)
            out.repairs = self._add_and_repair(a, b)
        out.rules = self.cable_rules(event.kind == LinkEventKind.ADD, links)
        return out

    def cable_rules(self, install: bool, links: Iterable[DirectedLink],
                    nonce: int = 0) -> List[RuleInstallFrame]:
        """The rule change of each of a cable's directions whose source is a switch."""
        return [RuleInstallFrame.for_link(install, *link.key(), link.lid, nonce) for link in links
                if self.nodes[link.src].kind == NodeKind.SDN_SWITCH]

    def _subtree(self, roots: List[int]) -> Set[int]:
        """The roots and every node whose in-tree path runs through one."""
        below: Set[int] = set()
        nxt = self._next
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid not in below:
                below.add(nid)
                stack.extend([p for p in self._adj[nid] if nxt.get(p) == nid])
        return below

    def _repair(self, affected: Set[int]) -> List[RepairAction]:
        """Recompose the affected committed nodes' TMFIDs by hop count, so a next
        hop's is current before its children read it; report changed ones in NID
        order.  A cut-off node keeps its stale TMFID until a link returns."""
        repairs = []
        for nid in sorted((n for n in affected if n in self._dist and self.nodes[n].committed),
                          key=self._dist.__getitem__):
            tmfid = self._tmfid(nid)
            if tmfid != self.nodes[nid].tmfid:
                self.nodes[nid].tmfid = tmfid
                repairs.append(RepairAction(nid, tmfid, self.links[(nid, self._next[nid])].lid))
        return sorted(repairs, key=lambda r: r.nid)

    def _add_and_repair(self, a: int, b: int) -> List[RepairAction]:
        # The cable a - b is up: move only nodes whose deterministic shortest
        # path changed, all below its end farther from the TM (src); restores
        # pre-failure TMFIDs after a flap.
        dist, nxt = self._dist, self._next  # the in-tree of the graph without the cable
        src, dst = (b, a) if dist.get(a, inf) < dist.get(b, inf) else (a, b)
        if dst not in dist:  # neither end reaches the TM
            return []
        hops = dist[dst] + 1
        if src in dist and hops >= dist[src]:
            if hops > dist[src] or dst > nxt[src]:
                return []
            nxt[src] = dst  # a tie won by the smaller NID
            return self._repair(self._subtree([src]))
        # Hop counts can only fall: lower them breadth-first from src.
        dist[src] = hops
        lowered = [src]
        queue = deque(lowered)
        while queue:
            node = queue.popleft()
            for pred in self._adj[node]:
                if pred not in dist or dist[node] + 1 < dist[pred]:
                    dist[pred] = dist[node] + 1
                    lowered.append(pred)
                    queue.append(pred)
        # A lowered node re-picks its next hop.  A node that keeps its hop
        # count keeps a valid next hop, whose count is unchanged too, and
        # moves only to a smaller lowered successor one hop closer.
        moved = set(lowered)
        for node in lowered:
            nxt[node] = self._step(node, dist)
            for pred in self._adj[node]:
                if pred not in moved and dist[pred] == dist[node] + 1 and node < nxt[pred]:
                    nxt[pred] = node
        return self._repair(self._subtree([src]))

    def record_stats(self, report: LinkStatsReport) -> None:
        """Fold reported per-link utilization into link loads for TE."""
        by_lid = {link.lid: key for key, link in self.links.items()}
        for entry in report.entries:
            key = by_lid.get(entry.lid)
            if key is None:
                raise UnknownLink(f"stats for unknown LID {self._hex(entry.lid)}")
            self.links[key] = replace(self.links[key],
                                      load=entry.utilization_ppm / 1_000_000)

    # -- introspection -------------------------------------------------------

    def live_lids(self) -> Set[int]:
        lids = {link.lid for link in self.links.values()}
        lids.update(rec.ilid for rec in self.nodes.values() if rec.ilid is not None)
        return lids

    def _hex(self, fid: Optional[int]) -> str:
        """An identifier as its m/8 wire bytes in hex, or ``-`` for none."""
        return "-" if fid is None else str(BitVector(self.params.m, fid))

    def dump(self) -> str:
        """Structured text export: node table then link table, LIDs in hex."""
        lines = ["# nodes: nid kind ilid tmfid"]
        for nid in sorted(self.nodes):
            rec = self.nodes[nid]
            lines.append("%d %s %s %s" % (nid, rec.kind.name, self._hex(rec.ilid),
                                          self._hex(rec.tmfid)))
        lines.append("# links: src dst lid delay_ms load")
        for key in sorted(self.links):
            link = self.links[key]
            lines.append("%d %d %s %.3f %.6f" % (
                link.src, link.dst, self._hex(link.lid), link.delay_ms, link.load))
        return "\n".join(lines) + "\n"
