"""Bootstrap handshake state machines.

Three cooperating roles: the new node's FSM (DHCP-like discover, request,
accept), the already-attached responder, and the TM engine answering
resource requests.  FSMs are reactive objects: each call returns a list of
actions (broadcasts, sends, timer arms) for the hosting layer to execute,
and never touches the network itself.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Tuple

from .fid import Exhausted, FidError
from .record import record
from .topology import (NodeKind, LinkEvent, LinkStatsReport, ResourceGrant, RuleInstallFrame,
                       TopologyError, TopologyGraph, UnknownAttachPoint, Unreachable)
from .wire import (DiscoveryOffer, DiscoveryRequest, Message, OfferAccepted,
                   ResourceAccepted, ResourceOffer, ResourceRequest, Update)

log = logging.getLogger(__name__)


class ProtocolError(Exception):
    pass


class WrongState(ProtocolError):
    pass


class NotBootstrapped(ProtocolError):
    """Responder has no configuration to offer yet."""


@dataclass(frozen=True)
class Timers:
    discovery_wait_us: int = 100_000
    request_timeout_us: int = 2_000_000
    max_retries: int = 3

    def __post_init__(self) -> None:
        if min(self.discovery_wait_us, self.request_timeout_us, self.max_retries) <= 0:
            raise ValueError("timer values must be positive")


@dataclass(slots=True)
class NodeConfig:
    """A node's ICN configuration; defaults until the handshake commits."""

    nid: int = 0
    ilid: Optional[int] = None
    link_lids: Dict[int, int] = field(default_factory=dict)  # neighbour NID -> LID
    tmfid: Optional[int] = None


class BootstrapState(enum.Enum):
    INIT = "INIT"
    DISCOVERING = "DISCOVERING"
    REQUESTING = "REQUESTING"
    AWAIT_FINAL = "AWAIT_FINAL"
    DONE = "DONE"
    FAILED = "FAILED"


# Actions handed back to the hosting layer.

@record
class Broadcast:
    message: Message


@record
class Send:
    message: Message
    port: int
    fid: int


@record
class Arm:
    delay_us: int
    token: int


Action = object

# The states with a live timer.
_WAITING = (BootstrapState.DISCOVERING, BootstrapState.REQUESTING, BootstrapState.AWAIT_FINAL)


class NodeBootstrapFsm:
    """Bootstrap state machine for one ICN node.

    Like a DHCP client it keeps one retransmission timer: ``_token`` is the
    live one's, and arming again or reaching DONE moves it on, so an earlier
    timer's ``on_timeout`` finds it stale.
    """

    def __init__(self, name: str, rng: Random, timers: Timers):
        self.name = name
        self.timers = timers
        self.state = BootstrapState.INIT
        self.config = NodeConfig()
        self.collected_offers: List[Tuple[DiscoveryOffer, int]] = []
        self.retries_left = timers.max_retries
        self.attach_nid: Optional[int] = None
        self.offered: Optional[ResourceOffer] = None
        self.nonce = 0
        while self.nonce == 0:
            self.nonce = rng.getrandbits(64)
        self._selected: Optional[Tuple[DiscoveryOffer, int]] = None
        self._token = 0

    def _arm(self, delay_us: int) -> Arm:
        self._token += 1
        return Arm(delay_us, self._token)

    def _discover(self) -> List[Action]:
        return [Broadcast(DiscoveryRequest(self.nonce)), self._arm(self.timers.discovery_wait_us)]

    def _request(self) -> List[Action]:
        """(Re)send the state's ResourceRequest or OfferAccepted, and arm the request timer."""
        assert self._selected is not None
        offer, port = self._selected
        if self.state == BootstrapState.REQUESTING:
            msg: Message = ResourceRequest(self.nonce, NodeKind.ICN_NODE, offer.responder_nid)
        else:
            assert self.offered is not None
            msg = OfferAccepted(self.nonce, self.offered.nid)
        return [Send(msg, port, offer.tmfid), self._arm(self.timers.request_timeout_us)]

    def start(self) -> List[Action]:
        if self.state != BootstrapState.INIT:
            raise WrongState(f"start() in state {self.state.name}")
        self.state = BootstrapState.DISCOVERING
        return self._discover()

    def on_message(self, msg: Message, via_port: int) -> List[Action]:
        if isinstance(msg, DiscoveryOffer) and self.state == BootstrapState.DISCOVERING:
            if msg.nonce != self.nonce:
                log.debug("%s: discovery offer with alien nonce ignored", self.name)
                return []
            if all(o.responder_nid != msg.responder_nid for o, _ in self.collected_offers):
                self.collected_offers.append((msg, via_port))
            return []
        if isinstance(msg, ResourceOffer) and self.state == BootstrapState.REQUESTING:
            if msg.nonce != self.nonce:
                log.debug("%s: resource offer with alien nonce ignored", self.name)
                return []
            self.offered = msg
            self.state = BootstrapState.AWAIT_FINAL
            return self._request()
        if isinstance(msg, ResourceAccepted) and self.state == BootstrapState.AWAIT_FINAL:
            if msg.nonce != self.nonce or self.offered is None or msg.nid != self.offered.nid:
                log.debug("%s: final ack mismatch ignored", self.name)
                return []
            self.config.nid = self.offered.nid
            self.config.ilid = self.offered.ilid
            assert self._selected is not None
            self.attach_nid = self._selected[0].responder_nid
            self.state = BootstrapState.DONE
            self._token += 1  # cancels the live timer
            return []
        log.debug("%s: %s ignored in state %s", self.name, type(msg).__name__, self.state.name)
        return []

    def on_timeout(self, token: int) -> List[Action]:
        """The timer armed with ``token`` expired: pick an offer, or retry or fail."""
        if token != self._token or self.state not in _WAITING:
            return []  # stale timer
        if self.state == BootstrapState.DISCOVERING and self.collected_offers:
            self._selected = min(
                self.collected_offers,
                key=lambda item: (item[0].tmfid.bit_count(), item[0].responder_nid))
            self.state = BootstrapState.REQUESTING
            return self._request()
        self.retries_left -= 1
        if self.retries_left <= 0:
            self.state = BootstrapState.FAILED
            return []
        return self._discover() if self.state == BootstrapState.DISCOVERING else self._request()


def responder_on_discovery(request: DiscoveryRequest, config: NodeConfig) -> DiscoveryOffer:
    """Answer a neighbor's discovery broadcast with our own TM path."""
    if config.nid == 0 or config.tmfid is None:
        raise NotBootstrapped("cannot offer without a committed configuration")
    return DiscoveryOffer(request.nonce, config.nid, config.tmfid)


def apply_update(config: NodeConfig, update: Update, self_attach_nid: Optional[int]) -> None:
    """Fold a TM Update into a node's configuration.

    Addressed to the node itself it carries the LID of the node's first hop
    towards the TM and its (initial or repaired) TMFID; the LID is recorded
    as the uplink to the attach point only the first time, since a repair's
    first hop is a link the TM has already announced.  Otherwise it
    announces the LID of the node's link towards ``update.nid``.  Duplicate
    updates are idempotent.
    """
    if update.nid == config.nid:
        if self_attach_nid is not None:
            config.link_lids.setdefault(self_attach_nid, update.lid)
        if update.tmfid is not None:
            config.tmfid = update.tmfid
    else:
        config.link_lids[update.nid] = update.lid


# -- TM engine ---------------------------------------------------------------

@record
class Notify:
    """Message from the TM to a committed or pending node, replies included.

    The hosting layer hands a switch's message to the controller and routes
    an ICN node's over :meth:`TopologyGraph.fid_from_tm`.
    """

    nid: int
    message: Message


class TmEngine:
    """Message-level front of the Topology Manager.

    Each call returns the actions it decided, in order; a message it
    rejects, logged, yields none.  The LIDs a call allocates, which the
    hosting layer charges, are the growth of ``graph.lid_registry``.  A
    handshake has one record, the offer under its nonce, replayed on a
    repeat; whether it committed is the graph's record of the offered NID.

    Serialization (one message at a time, arrival order) is the caller's
    job; the engine is deterministic given the graph's RNG.
    """

    def __init__(self, graph: TopologyGraph):
        self.graph = graph
        self._offers: Dict[int, ResourceOffer] = {}

    def on_message(self, msg: Message) -> List[Action]:
        if isinstance(msg, ResourceRequest):
            return self._on_request(msg)
        if isinstance(msg, OfferAccepted):
            return self._on_offer_accepted(msg)
        log.info("tm: unexpected %s dropped", type(msg).__name__)
        return []

    def _grant_rules(self, grant: ResourceGrant, nonce: int) -> List[RuleInstallFrame]:
        """The install rules of a grant's cable, up while its request or commit is served."""
        links = self.graph.links
        return self.graph.cable_rules(True, (links[(grant.attach_nid, grant.nid)],
                                             links[(grant.nid, grant.attach_nid)]), nonce)

    def _on_request(self, msg: ResourceRequest) -> List[Action]:
        offer = self._offers.get(msg.nonce)
        if offer is not None:
            return [Notify(offer.nid, offer)]  # idempotent replay
        try:
            grant = self.graph.allocate_resources(msg.requester_kind, msg.attach_nid)
        except Exhausted:
            log.warning("tm: LID space exhausted; staying silent for nonce %d", msg.nonce)
            return []
        except UnknownAttachPoint as exc:
            log.warning("tm: %s; request ignored", exc)
            return []
        offer = ResourceOffer(msg.nonce, grant.nid, grant.lid, grant.ilid)
        self._offers[msg.nonce] = offer
        actions: List[Action] = []
        if grant.kind != NodeKind.SDN_SWITCH:
            # A switch attach point's rule, in place before the offer transits it.
            actions = self._grant_rules(grant, msg.nonce)
            if self.graph.nodes[msg.attach_nid].kind == NodeKind.ICN_NODE:
                # Pure ICN attach point learns how to reach the new node so
                # it can forward the offer onwards.
                actions.append(Notify(msg.attach_nid, Update(grant.nid, grant.lid, None)))
        actions.append(Notify(grant.nid, offer))
        return actions

    def _on_offer_accepted(self, msg: OfferAccepted) -> List[Action]:
        offer = self._offers.get(msg.nonce)
        if offer is not None and self.graph.nodes[offer.nid].committed:
            return [Notify(offer.nid, ResourceAccepted(msg.nonce, offer.nid))]  # replay
        if offer is None or offer.nid != msg.nid or self.graph.pending_grant(msg.nid) is None:
            log.info("tm: OfferAccepted without pending grant (nid %d) ignored", msg.nid)
            return []
        grant = self.graph.pending_grant(msg.nid)
        try:
            record = self.graph.commit_grant(msg.nid)
        except Unreachable as exc:
            # The grant stays pending; the node's OfferAccepted retry commits
            # it once a link back to the TM returns.
            log.warning("tm: cannot commit NID %d yet: %s", msg.nid, exc)
            return []
        # Both bitmask rules of a switch's attachment, per direction.
        actions = self._grant_rules(grant, msg.nonce) if grant.kind == NodeKind.SDN_SWITCH else []
        actions.append(Notify(msg.nid, ResourceAccepted(msg.nonce, msg.nid)))
        if grant.kind != NodeKind.SDN_SWITCH:
            # The node's own outgoing LID and authoritative TMFID.
            actions.append(Notify(msg.nid, Update(msg.nid, grant.uplink_lid, record.tmfid)))
        return actions

    def nid_for_nonce(self, nonce: int) -> Optional[int]:
        offer = self._offers.get(nonce)
        return None if offer is None else offer.nid

    def expire(self, nonce: int) -> None:
        """Abandoned handshake: drop the cached offer and free the grant; a committed one stays."""
        offer = self._offers.get(nonce)
        if offer is None or self.graph.nodes[offer.nid].committed:
            return
        del self._offers[nonce]
        self.graph.expire_grant(offer.nid)

    def on_link_event(self, event: LinkEvent) -> List[Action]:
        before = len(self.graph.lid_registry)
        try:
            outcome = self.graph.handle_link_event(event)
        except (TopologyError, FidError) as exc:  # FidError: no LID left for an ADD
            log.warning("tm: link event failed: %s", exc)
            return []
        actions: List[Action] = list(outcome.rules)
        if len(self.graph.lid_registry) != before:  # a revived cable's are in its ends' tables
            for src, dst in ((event.src, event.dst), (event.dst, event.src)):
                if self.graph.nodes[src].kind == NodeKind.ICN_NODE:  # a switch end gets a rule
                    lid = self.graph.links[(src, dst)].lid
                    actions.append(Notify(src, Update(dst, lid)))
        for repair in outcome.repairs:
            if self.graph.nodes[repair.nid].kind == NodeKind.ICN_NODE:
                actions.append(Notify(
                    repair.nid, Update(repair.nid, repair.uplink, repair.new_tmfid)))
        return actions

    def on_link_stats(self, report: LinkStatsReport) -> List[Action]:
        try:
            self.graph.record_stats(report)
        except TopologyError as exc:
            log.warning("tm: stats report rejected: %s", exc)
        return []
