"""Emulated SDN data and control planes.

Switches hold arbitrary-bitmask flow tables keyed on the packet FID; a
packet is emitted on every matching port, which yields native multicast
for OR-ed FIDs.  A packet that matches nothing is silently dropped unless
it carries the all-zero bootstrap FID, in which case it escalates to the
controller as a PacketIn (that is how discovery broadcasts from
unconfigured nodes reach the ICN application while stray Bloom
false-positive copies die in the fabric).

The controller hosts the ICN application: it proxies switch bootstraps
towards the TM over the ICN-SDN channel, answers host discovery via
PacketIn/PacketOut, relays link events, and applies the TM's flow-rule
frames.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from . import wire
from .fid import BitVector, Fid, FidParams
from .topology import (LinkEvent, LinkEventKind, NodeKind, RULE_PRIORITY, RuleInstallFrame,
                       TM_NID)
from .wire import (CodecError, DiscoveryOffer, DiscoveryRequest, OfferAccepted,
                   ResourceAccepted, ResourceOffer, ResourceRequest)

log = logging.getLogger(__name__)


class FabricError(Exception):
    pass


class AttachNotEnabled(FabricError):
    """Attachment switch has no ICN flow rules yet (and is not the seed)."""


@dataclass(frozen=True)
class FlowRule:
    """Arbitrary-bitmask match: packet matches when fid & mask == value."""

    mask: BitVector
    value: BitVector
    out_port: int
    priority: int = RULE_PRIORITY

    def __post_init__(self) -> None:
        if self.value.value & self.mask.value != self.value.value:
            raise ValueError("rule value must be covered by its mask")


class IcnPacket(NamedTuple):
    """Data-plane frame: source-route FID, hop budget, opaque payload.

    A named tuple, so immutable and cheap to build: every hop builds one.
    """

    fid: Fid
    hop_limit: int
    payload: bytes
    trace_id: int = 0

    def spend_hop(self) -> "IcnPacket":
        """The packet as sent on by a forwarder: one hop less."""
        return IcnPacket(self.fid, self.hop_limit - 1, self.payload, self.trace_id)


class Miss:
    """Returned by switch_forward when no rule matches."""

    def __repr__(self) -> str:  # pragma: no cover
        return "Miss"


MISS = Miss()


class FlowTable:
    """Priority-ordered rule list with multi-match semantics.

    ``rules`` is the canonical table, in a canonical order.  ``_match``
    mirrors it as ``(mask, value, out_port)`` integers, rebuilt on every
    change, so a lookup compares plain ints rule by rule.
    """

    def __init__(self) -> None:
        self.rules: List[FlowRule] = []
        self._match: List[Tuple[int, int, int]] = []

    def add(self, rule: FlowRule) -> None:
        if rule in self.rules:
            return
        self.rules.append(rule)
        # Canonical order keeps tables comparable across install sequences.
        self.rules.sort(key=lambda r: (-r.priority, r.mask.value, r.value.value, r.out_port))
        self._reindex()

    def remove(self, mask: BitVector, value: BitVector) -> bool:
        before = len(self.rules)
        self.rules = [r for r in self.rules if not (r.mask == mask and r.value == value)]
        if len(self.rules) == before:
            return False
        self._reindex()
        return True

    def _reindex(self) -> None:
        self._match = [(r.mask.value, r.value.value, r.out_port) for r in self.rules]

    def match_ports(self, fid: Fid) -> List[int]:
        """Out-ports of the rules with ``fid & mask == value``, once each, in rule order."""
        bits = fid.value
        ports: List[int] = []
        for mask, value, port in self._match:
            if bits & mask == value and port not in ports:
                ports.append(port)
        return ports

    def snapshot(self) -> Tuple[FlowRule, ...]:
        return tuple(self.rules)

    def __len__(self) -> int:
        return len(self.rules)


def switch_forward(table: FlowTable, packet: IcnPacket) -> Union[List[int], Miss]:
    """All out-ports whose rules match the packet FID, or Miss."""
    ports = table.match_ports(packet.fid)
    return ports if ports else MISS


def encode_packet(packet: IcnPacket, params: FidParams) -> bytes:
    return packet.fid.to_bytes() + bytes([min(packet.hop_limit, 255)]) + packet.payload


def decode_packet(data: bytes, params: FidParams) -> IcnPacket:
    width_bytes = params.m // 8
    if len(data) < width_bytes + 1:
        raise CodecError("packet shorter than FID header")
    fid = BitVector.from_bytes(data[:width_bytes])
    return IcnPacket(fid, data[width_bytes], data[width_bytes + 1:])


# -- control events -----------------------------------------------------------

@dataclass(frozen=True)
class SwitchAttached:
    new_switch: str
    attach_switch: str  # switch name, or the TM's name for the seed switch


@dataclass(frozen=True)
class PacketIn:
    switch: str
    in_port: int
    data: bytes


@dataclass(frozen=True)
class LinkDown:
    a: str
    b: str


@dataclass(frozen=True)
class LinkUp:
    a: str
    b: str


ControlEvent = Union[SwitchAttached, PacketIn, LinkDown, LinkUp]


class Controller:
    """ICN application on the SDN controller.

    ``net`` is the hosting deployment; it provides switch access, the
    control channel towards the TM, PacketOut injection and read-only
    access to the TM graph (the ICN-SDN interface models queries as
    synchronous reads, frames as delayed messages).
    """

    def __init__(self, net) -> None:
        self.net = net
        self.params: FidParams = net.params
        self.enabled: Dict[str, int] = {}       # switch name -> NID
        # NID -> node name, learnt from the controller's own events
        self.nid_names: Dict[int, str] = {TM_NID: net.tm_name}
        self.pending_proxy: Dict[int, str] = {}  # nonce -> name of the proxied switch
        # host nonce -> the host's name, the neighbour behind its discovery
        # PacketIn's ingress port; popped by the host's attach rule, or when
        # the host ends DONE or FAILED without one
        self.pending_discovery: Dict[int, str] = {}
        self.packet_in_count = 0
        self.audit_drops = 0

    # -- control events ------------------------------------------------------

    def on_control_event(self, event: ControlEvent) -> None:
        if isinstance(event, SwitchAttached):
            self.on_switch_attached(event)
        elif isinstance(event, PacketIn):
            self.on_packet_in(event)
        elif isinstance(event, (LinkDown, LinkUp)):
            self.on_link_change(event)
        else:  # pragma: no cover
            log.warning("controller: unknown control event %r", event)

    def on_switch_attached(self, event: SwitchAttached) -> None:
        """Proxy the bootstrap handshake for a newly cabled switch."""
        if event.attach_switch != self.net.tm_name and event.attach_switch not in self.enabled:
            raise AttachNotEnabled(f"{event.attach_switch} is not ICN-enabled")
        attach_nid = TM_NID if event.attach_switch == self.net.tm_name \
            else self.enabled[event.attach_switch]
        nonce = 0
        while nonce == 0 or nonce in self.pending_proxy:
            nonce = self.net.controller_rng.getrandbits(64)
        self.pending_proxy[nonce] = event.new_switch
        self.net.ctl_send(ResourceRequest(nonce, NodeKind.SDN_SWITCH, attach_nid))

    def on_ctl_message(self, msg: wire.Message) -> None:
        """Frame arriving from the TM over the ICN-SDN channel."""
        if isinstance(msg, ResourceOffer) and msg.nonce in self.pending_proxy:
            self.nid_names[msg.nid] = self.pending_proxy[msg.nonce]
            self.net.ctl_send(OfferAccepted(msg.nonce, msg.nid))
        elif isinstance(msg, ResourceAccepted) and msg.nonce in self.pending_proxy:
            name = self.pending_proxy.pop(msg.nonce)
            self.enabled[name] = msg.nid
            self.net.switch_attach_complete(name)
        elif isinstance(msg, RuleInstallFrame):
            self.apply_rule(msg)
        else:
            self.audit_drops += 1
            log.info("controller: ctl frame %s dropped", type(msg).__name__)

    def on_packet_in(self, event: PacketIn) -> None:
        """Discovery broadcasts escalate here; everything else is logged away."""
        self.packet_in_count += 1
        try:
            packet = decode_packet(event.data, self.params)
            msg = wire.decode(packet.payload, self.params)
        except CodecError as exc:
            self.audit_drops += 1
            log.info("controller: undecodable PacketIn from %s: %s", event.switch, exc)
            return
        if not isinstance(msg, DiscoveryRequest):
            self.audit_drops += 1
            log.info("controller: %s via PacketIn dropped", type(msg).__name__)
            return
        self.pending_discovery[msg.nonce] = self.net.switches[event.switch].ports[event.in_port].dst
        nid = self.enabled.get(event.switch)
        if nid is None:
            log.debug("controller: discovery at not-yet-enabled switch %s", event.switch)
            return
        tmfid = self.net.graph.nodes[nid].tmfid
        offer = DiscoveryOffer(msg.nonce, nid, tmfid)
        self.net.packet_out(event.switch, event.in_port, self.net.link_local_packet(offer))

    def on_link_change(self, event: Union[LinkDown, LinkUp]) -> None:
        """Relay a physical link transition to the TM, one event per direction."""
        kind = LinkEventKind.REMOVE if isinstance(event, LinkDown) else LinkEventKind.ADD
        nid_a, nid_b = self.net.nid_of(event.a), self.net.nid_of(event.b)
        if nid_a is None or nid_b is None:
            log.warning("controller: link %s<->%s has an unmanaged endpoint; not relayed",
                        event.a, event.b)
            return
        self.nid_names[nid_a], self.nid_names[nid_b] = event.a, event.b
        delay = self.net.link_delay_ms(event.a, event.b)
        self.net.ctl_send(LinkEvent(kind, nid_a, nid_b, delay))
        self.net.ctl_send(LinkEvent(kind, nid_b, nid_a, delay))

    # -- rule management -------------------------------------------------------

    def apply_rule(self, frame: RuleInstallFrame) -> None:
        """Install or remove the frame's rule as sent; the TM's own side has no table."""
        host = self.pending_discovery.pop(frame.nonce, None)
        if host is not None:  # a host's attach rule: its NID now has a name
            self.nid_names[frame.dst_nid] = host
        switch_name = self.nid_names.get(frame.switch_nid)
        if switch_name is None or switch_name == self.net.tm_name:
            if switch_name is None:
                log.warning("controller: rule for unknown switch NID %d", frame.switch_nid)
            return
        table = self.net.switches[switch_name].table
        if not frame.install:
            table.remove(frame.mask, frame.value)
            return
        port = self._resolve_port(switch_name, frame)
        if port is None:
            log.warning("controller: cannot resolve port for rule on %s towards NID %d",
                        switch_name, frame.dst_nid)
            return
        table.add(FlowRule(frame.mask, frame.value, port, frame.priority))

    def _resolve_port(self, switch_name: str, frame: RuleInstallFrame) -> Optional[int]:
        """The switch's port whose cable leads to the rule's destination, by name."""
        dst_name = self.nid_names.get(frame.dst_nid)
        for port, link in self.net.switches[switch_name].ports.items():
            if link.dst == dst_name:
                return port
        return None
