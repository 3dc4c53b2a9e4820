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
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from . import wire
from .fid import BitVector, FidParams
from .record import record
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
    """Arbitrary-bitmask match: packet matches when fid & mask == value.

    The form of a rule in :meth:`FlowTable.snapshot`.
    """

    mask: BitVector
    value: BitVector
    out_port: int
    priority: int = RULE_PRIORITY


class IcnPacket(NamedTuple):
    """Data-plane frame: source-route FID and opaque payload.

    Built once and never copied; the hop budget rides on each copy in
    flight, the ``(packet, in_port, hop_limit)`` tuple of ``deploy.PortLink``,
    and only :func:`encode_packet` writes it into a frame.
    """

    fid: int
    payload: bytes
    trace_id: int = 0


class FlowTable:
    """Priority-ordered rule list with multi-match semantics, at FID width ``m``.

    ``rules`` holds each rule once as the tuple ``(-priority, mask, value,
    out_port)`` of ints, in ascending order: the canonical order, which
    keeps tables comparable across install sequences.
    """

    def __init__(self, m: int) -> None:
        self.m = m
        self.rules: List[Tuple[int, int, int, int]] = []

    def add(self, mask: int, value: int, out_port: int, priority: int = RULE_PRIORITY) -> None:
        if value & mask != value:
            raise ValueError("rule value must be covered by its mask")
        rule = (-priority, mask, value, out_port)
        at = bisect_right(self.rules, rule)
        if not at or self.rules[at - 1] != rule:
            self.rules.insert(at, rule)

    def remove(self, mask: int, value: int) -> bool:
        """Remove every rule of this mask and value; whether there was one."""
        hits = [i for i, rule in enumerate(self.rules) if rule[1] == mask and rule[2] == value]
        for i in reversed(hits):
            del self.rules[i]
        return bool(hits)

    def match_ports(self, fid: int) -> List[int]:
        """Out-ports of the rules with ``fid & mask == value``, once each, in rule order."""
        ports: List[int] = []
        for _, mask, value, port in self.rules:
            if fid & mask == value and port not in ports:
                ports.append(port)
        return ports

    def snapshot(self) -> Tuple[FlowRule, ...]:
        """The rules in canonical order, identifiers as vectors."""
        m = self.m
        return tuple(FlowRule(BitVector(m, mask), BitVector(m, value), port, -neg_priority)
                     for neg_priority, mask, value, port in self.rules)

    def __len__(self) -> int:
        return len(self.rules)


def switch_forward(table: FlowTable, packet: IcnPacket) -> Optional[List[int]]:
    """All out-ports whose rules match the packet FID, or None on a table miss."""
    return table.match_ports(packet.fid) or None


def encode_packet(packet: IcnPacket, hop_limit: int, params: FidParams) -> bytes:
    """The frame of ``packet`` as it travels with ``hop_limit`` hops left."""
    fid = packet.fid.to_bytes(params.m // 8, "big")
    return fid + bytes([min(hop_limit, 255)]) + packet.payload


def decode_packet(data: bytes, params: FidParams) -> Tuple[IcnPacket, int]:
    """A frame's packet and the hop budget it carried."""
    width_bytes = params.m // 8
    if len(data) < width_bytes + 1:
        raise CodecError("packet shorter than FID header")
    fid = int.from_bytes(data[:width_bytes], "big")
    return IcnPacket(fid, data[width_bytes + 1:]), data[width_bytes]


# -- control events -----------------------------------------------------------

@record
class SwitchAttached:
    new_switch: str
    attach_switch: str  # switch name, or the TM's name for the seed switch


@record
class PacketIn:
    switch: str
    in_port: int
    data: bytes


@record
class LinkChange:
    """The cable a - b went down (REMOVE) or came back up (ADD)."""

    kind: LinkEventKind
    a: str
    b: str


ControlEvent = Union[SwitchAttached, PacketIn, LinkChange]


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
        elif isinstance(event, LinkChange):
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
            self.net.node_attached(name)
        elif isinstance(msg, RuleInstallFrame):
            self.apply_rule(msg)
        else:
            self.audit_drops += 1
            log.info("controller: ctl frame %s dropped", type(msg).__name__)

    def on_packet_in(self, event: PacketIn) -> None:
        """Discovery broadcasts escalate here; everything else is logged away."""
        self.packet_in_count += 1
        try:
            packet, _ = decode_packet(event.data, self.params)
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
        self.net.packet_out(event.switch, event.in_port, self.net.control_packet(offer))

    def on_link_change(self, event: LinkChange) -> None:
        """Relay a physical link transition to the TM, one event per cable."""
        nid_a, nid_b = self.net.nid_of(event.a), self.net.nid_of(event.b)
        if nid_a is None or nid_b is None:
            log.warning("controller: link %s<->%s has an unmanaged endpoint; not relayed",
                        event.a, event.b)
            return
        self.nid_names[nid_a], self.nid_names[nid_b] = event.a, event.b
        delay = self.net.link_delay_ms(event.a, event.b)
        self.net.ctl_send(LinkEvent(event.kind, nid_a, nid_b, delay))

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
        table.add(frame.mask, frame.value, port, frame.priority)

    def _resolve_port(self, switch_name: str, frame: RuleInstallFrame) -> Optional[int]:
        """The switch's port whose cable leads to the rule's destination, by name."""
        return self.net.port_to[switch_name].get(self.nid_names.get(frame.dst_nid))
