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

from .fid import Exhausted, Fid, LinkId
from .topology import (NodeKind, LinkEvent, LinkStatsReport, RuleInstallFrame,
                       TopologyGraph, UnknownAttachPoint, Unreachable)
from .wire import (DiscoveryOffer, DiscoveryRequest, Message, OfferAccepted,
                   ResourceAccepted, ResourceOffer, ResourceRequest, Update)

log = logging.getLogger(__name__)

DISCOVERY_TIMER = "discovery"
REQUEST_TIMER = "request"


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


@dataclass
class NodeConfig:
    """A node's ICN configuration; defaults until the handshake commits."""

    nid: int = 0
    ilid: Optional[LinkId] = None
    link_lids: Dict[int, LinkId] = field(default_factory=dict)
    tmfid: Optional[Fid] = None


class BootstrapState(enum.Enum):
    INIT = "INIT"
    DISCOVERING = "DISCOVERING"
    REQUESTING = "REQUESTING"
    AWAIT_FINAL = "AWAIT_FINAL"
    DONE = "DONE"
    FAILED = "FAILED"


# Actions handed back to the hosting layer.

@dataclass(frozen=True)
class Broadcast:
    message: Message


@dataclass(frozen=True)
class Send:
    message: Message
    port: int
    fid: Fid


@dataclass(frozen=True)
class Arm:
    timer_id: str
    delay_us: int
    token: int


Action = object


class NodeBootstrapFsm:
    """Bootstrap state machine for one ICN node."""

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
        self._tokens: Dict[str, int] = {}

    def _arm(self, timer_id: str, delay_us: int) -> Arm:
        token = self._tokens.get(timer_id, 0) + 1
        self._tokens[timer_id] = token
        return Arm(timer_id, delay_us, token)

    def start(self) -> List[Action]:
        if self.state != BootstrapState.INIT:
            raise WrongState(f"start() in state {self.state.name}")
        self.state = BootstrapState.DISCOVERING
        return [Broadcast(DiscoveryRequest(self.nonce)),
                self._arm(DISCOVERY_TIMER, self.timers.discovery_wait_us)]

    def on_message(self, msg: Message, via_port: int) -> List[Action]:
        if self.state in (BootstrapState.DONE, BootstrapState.FAILED):
            return []
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
            assert self._selected is not None
            offer, port = self._selected
            return [Send(OfferAccepted(self.nonce, msg.nid), port, offer.tmfid),
                    self._arm(REQUEST_TIMER, self.timers.request_timeout_us)]
        if isinstance(msg, ResourceAccepted) and self.state == BootstrapState.AWAIT_FINAL:
            if msg.nonce != self.nonce or self.offered is None or msg.nid != self.offered.nid:
                log.debug("%s: final ack mismatch ignored", self.name)
                return []
            self.config.nid = self.offered.nid
            self.config.ilid = self.offered.ilid
            assert self._selected is not None
            self.attach_nid = self._selected[0].responder_nid
            self.state = BootstrapState.DONE
            self._tokens = {t: v + 1 for t, v in self._tokens.items()}  # cancel timers
            return []
        log.debug("%s: %s ignored in state %s", self.name, type(msg).__name__, self.state.name)
        return []

    def on_timeout(self, timer_id: str, token: int) -> List[Action]:
        if self._tokens.get(timer_id) != token:
            return []  # stale timer
        if self.state == BootstrapState.DISCOVERING and timer_id == DISCOVERY_TIMER:
            if self.collected_offers:
                offer, port = min(
                    self.collected_offers,
                    key=lambda item: (item[0].tmfid.popcount(), item[0].responder_nid))
                self._selected = (offer, port)
                self.state = BootstrapState.REQUESTING
                request = ResourceRequest(self.nonce, NodeKind.ICN_NODE, offer.responder_nid)
                return [Send(request, port, offer.tmfid),
                        self._arm(REQUEST_TIMER, self.timers.request_timeout_us)]
            self.retries_left -= 1
            if self.retries_left <= 0:
                self.state = BootstrapState.FAILED
                return []
            return [Broadcast(DiscoveryRequest(self.nonce)),
                    self._arm(DISCOVERY_TIMER, self.timers.discovery_wait_us)]
        if timer_id == REQUEST_TIMER and self.state in (BootstrapState.REQUESTING,
                                                        BootstrapState.AWAIT_FINAL):
            self.retries_left -= 1
            if self.retries_left <= 0:
                self.state = BootstrapState.FAILED
                return []
            assert self._selected is not None
            offer, port = self._selected
            if self.state == BootstrapState.REQUESTING:
                resend: Message = ResourceRequest(self.nonce, NodeKind.ICN_NODE,
                                                  offer.responder_nid)
            else:
                assert self.offered is not None
                resend = OfferAccepted(self.nonce, self.offered.nid)
            return [Send(resend, port, offer.tmfid),
                    self._arm(REQUEST_TIMER, self.timers.request_timeout_us)]
        return []


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

@dataclass(frozen=True)
class Reply:
    """Send back to whoever originated the message being handled."""

    message: Message


@dataclass(frozen=True)
class Notify:
    """FID-routed message from the TM to a committed or pending node.

    The hosting layer routes it over :meth:`TopologyGraph.path_from_tm`.
    """

    nid: int
    message: Message


@dataclass
class TmResult:
    lids_allocated: int = 0
    actions: List[object] = field(default_factory=list)


class TmEngine:
    """Message-level front of the Topology Manager.

    Serialization (one message at a time, arrival order) is the caller's
    job; the engine is deterministic given the graph's RNG.
    """

    def __init__(self, graph: TopologyGraph):
        self.graph = graph
        self._offers: Dict[int, ResourceOffer] = {}
        self._nonce_nid: Dict[int, int] = {}
        self._committed: Dict[int, int] = {}

    def on_message(self, msg: Message) -> TmResult:
        if isinstance(msg, ResourceRequest):
            return self._on_request(msg)
        if isinstance(msg, OfferAccepted):
            return self._on_offer_accepted(msg)
        log.info("tm: unexpected %s dropped", type(msg).__name__)
        return TmResult()

    def _on_request(self, msg: ResourceRequest) -> TmResult:
        if msg.nonce in self._offers:
            return TmResult(0, [Reply(self._offers[msg.nonce])])  # idempotent replay
        try:
            grant = self.graph.allocate_resources(msg.requester_kind, msg.attach_nid)
        except Exhausted:
            log.warning("tm: LID space exhausted; staying silent for nonce %d", msg.nonce)
            return TmResult()
        except UnknownAttachPoint as exc:
            log.warning("tm: %s; request ignored", exc)
            return TmResult()
        offer = ResourceOffer(msg.nonce, grant.nid, grant.lid, grant.ilid)
        self._offers[msg.nonce] = offer
        self._nonce_nid[msg.nonce] = grant.nid
        result = TmResult(2 if grant.ilid is None else 3)
        attach_kind = self.graph.nodes[msg.attach_nid].kind
        if grant.kind != NodeKind.SDN_SWITCH:
            if attach_kind == NodeKind.SDN_SWITCH:
                # Downstream rule must be in place before the offer transits
                # the attachment switch.
                result.actions.append(RuleInstallFrame.for_link(
                    True, msg.attach_nid, grant.nid, grant.lid, nonce=msg.nonce))
            elif attach_kind == NodeKind.ICN_NODE:
                # Pure ICN attach point learns how to reach the new node so
                # it can forward the offer onwards.
                result.actions.append(Notify(msg.attach_nid, Update(grant.nid, grant.lid, None)))
        result.actions.append(Reply(offer))
        return result

    def _on_offer_accepted(self, msg: OfferAccepted) -> TmResult:
        if msg.nonce in self._committed:
            return TmResult(0, [Reply(ResourceAccepted(msg.nonce, self._committed[msg.nonce]))])
        if self._nonce_nid.get(msg.nonce) != msg.nid or self.graph.pending_grant(msg.nid) is None:
            log.info("tm: OfferAccepted without pending grant (nid %d) ignored", msg.nid)
            return TmResult()
        grant = self.graph.pending_grant(msg.nid)
        try:
            record = self.graph.commit_grant(msg.nid)
        except Unreachable as exc:
            # The grant stays pending; the node's OfferAccepted retry commits
            # it once a link back to the TM returns.
            log.warning("tm: cannot commit NID %d yet: %s", msg.nid, exc)
            return TmResult()
        self._committed[msg.nonce] = msg.nid
        result = TmResult()
        if grant.kind == NodeKind.SDN_SWITCH:
            # Both bitmask rules of the new attachment, per direction.
            if self.graph.nodes[grant.attach_nid].kind == NodeKind.SDN_SWITCH:
                result.actions.append(RuleInstallFrame.for_link(
                    True, grant.attach_nid, grant.nid, grant.lid, nonce=msg.nonce))
            result.actions.append(RuleInstallFrame.for_link(
                True, grant.nid, grant.attach_nid, grant.uplink_lid, nonce=msg.nonce))
        result.actions.append(Reply(ResourceAccepted(msg.nonce, msg.nid)))
        if grant.kind != NodeKind.SDN_SWITCH:
            # The node's own outgoing LID and authoritative TMFID.
            result.actions.append(Notify(
                msg.nid, Update(msg.nid, grant.uplink_lid, record.tmfid)))
        return result

    def nid_for_nonce(self, nonce: int) -> Optional[int]:
        return self._nonce_nid.get(nonce)

    def expire(self, nonce: int) -> None:
        """Abandoned handshake: drop the cached offer and free the grant."""
        if nonce in self._committed:
            return
        nid = self._nonce_nid.pop(nonce, None)
        self._offers.pop(nonce, None)
        if nid is not None:
            self.graph.expire_grant(nid)

    def on_link_event(self, event: LinkEvent) -> TmResult:
        before = len(self.graph.lid_registry)
        outcome = self.graph.handle_link_event(event)
        result = TmResult(len(self.graph.lid_registry) - before, list(outcome.rule_directives))
        if result.lids_allocated and self.graph.nodes[event.src].kind == NodeKind.ICN_NODE:
            # An ICN node's counterpart of a switch's install rule.  A revived
            # link keeps its LID, which the node's link table still holds.
            lid = self.graph.links[(event.src, event.dst)].lid
            result.actions.append(Notify(event.src, Update(event.dst, lid)))
        for repair in outcome.repairs:
            if self.graph.nodes[repair.nid].kind == NodeKind.ICN_NODE:
                lid = repair.new_path[0].lid if repair.new_path else None
                if lid is not None:
                    result.actions.append(Notify(
                        repair.nid, Update(repair.nid, lid, repair.new_tmfid)))
        return result

    def on_link_stats(self, report: LinkStatsReport) -> TmResult:
        self.graph.record_stats(report)
        return TmResult()
