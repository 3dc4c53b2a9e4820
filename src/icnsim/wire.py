"""Binary codec for the bootstrap protocol and control-channel frames.

Every frame is ``[version=0x01][type: 1 byte][payload length: 2 bytes BE]``
followed by the payload.  NIDs and nonces are 8-byte big-endian integers;
LIDs and FIDs occupy ``m/8`` bytes in MSB-first bit order.  An absent
LID/FID field is encoded as all-zero (a real identifier always has set
bits).  :func:`golden_messages` holds one golden message per frame type;
``icnsim dump-protocol`` prints their encodings.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .fid import BitVector, Fid, FidParams, LinkId
from .topology import (LinkEvent, LinkEventKind, LinkStatsReport, NodeKind, RuleInstallFrame,
                       StatsEntry)

VERSION = 0x01

TYPE_DISCOVERY_REQUEST = 0x01
TYPE_DISCOVERY_OFFER = 0x02
TYPE_RESOURCE_REQUEST = 0x03
TYPE_RESOURCE_OFFER = 0x04
TYPE_OFFER_ACCEPTED = 0x05
TYPE_RESOURCE_ACCEPTED = 0x06
TYPE_UPDATE = 0x07
TYPE_LINK_EVENT = 0x10
TYPE_LINK_STATS = 0x11
TYPE_RULE_INSTALL = 0x12


class CodecError(Exception):
    """Base error for frame decoding."""


class BadVersion(CodecError):
    pass


class UnknownType(CodecError):
    pass


class TruncatedPayload(CodecError):
    pass


class LengthMismatch(CodecError):
    pass


@dataclass(frozen=True)
class DiscoveryRequest:
    nonce: int


@dataclass(frozen=True)
class DiscoveryOffer:
    nonce: int
    responder_nid: int
    tmfid: Fid


@dataclass(frozen=True)
class ResourceRequest:
    nonce: int
    requester_kind: NodeKind
    attach_nid: int


@dataclass(frozen=True)
class ResourceOffer:
    nonce: int
    nid: int
    lid: LinkId
    ilid: Optional[LinkId]  # absent for SDN switches


@dataclass(frozen=True)
class OfferAccepted:
    nonce: int
    nid: int


@dataclass(frozen=True)
class ResourceAccepted:
    nonce: int
    nid: int


@dataclass(frozen=True)
class Update:
    """TM -> ICN node link notification: the LID of the receiver's link towards ``nid``.

    Only the TM sends it, FID-routed.  Addressed to the receiver itself
    (``nid`` is its own NID), it carries the LID of the receiver's first hop
    towards the TM and a ``tmfid``: the receiver's new TM path (initial
    configuration and resilience repairs).
    """

    nid: int
    lid: LinkId
    tmfid: Optional[Fid] = None


Message = Union[DiscoveryRequest, DiscoveryOffer, ResourceRequest, ResourceOffer,
                OfferAccepted, ResourceAccepted, Update,
                LinkEvent, LinkStatsReport, RuleInstallFrame]

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")


def _vec_bytes(vec: Optional[BitVector], params: FidParams) -> bytes:
    if vec is None:
        return bytes(params.m // 8)
    if vec.width != params.m:
        raise ValueError(f"identifier width {vec.width} != deployment m {params.m}")
    return vec.to_bytes()


def encode(msg: Message, params: FidParams) -> bytes:
    """Serialize a message to its wire frame."""
    if isinstance(msg, DiscoveryRequest):
        mtype, payload = TYPE_DISCOVERY_REQUEST, _U64.pack(msg.nonce)
    elif isinstance(msg, DiscoveryOffer):
        mtype = TYPE_DISCOVERY_OFFER
        payload = _U64.pack(msg.nonce) + _U64.pack(msg.responder_nid) + _vec_bytes(msg.tmfid, params)
    elif isinstance(msg, ResourceRequest):
        mtype = TYPE_RESOURCE_REQUEST
        payload = _U64.pack(msg.nonce) + bytes([msg.requester_kind.value]) + _U64.pack(msg.attach_nid)
    elif isinstance(msg, ResourceOffer):
        mtype = TYPE_RESOURCE_OFFER
        payload = (_U64.pack(msg.nonce) + _U64.pack(msg.nid)
                   + _vec_bytes(msg.lid, params) + _vec_bytes(msg.ilid, params))
    elif isinstance(msg, OfferAccepted):
        mtype, payload = TYPE_OFFER_ACCEPTED, _U64.pack(msg.nonce) + _U64.pack(msg.nid)
    elif isinstance(msg, ResourceAccepted):
        mtype, payload = TYPE_RESOURCE_ACCEPTED, _U64.pack(msg.nonce) + _U64.pack(msg.nid)
    elif isinstance(msg, Update):
        mtype = TYPE_UPDATE
        payload = _U64.pack(msg.nid) + _vec_bytes(msg.lid, params) + _vec_bytes(msg.tmfid, params)
    elif isinstance(msg, LinkEvent):
        mtype = TYPE_LINK_EVENT
        payload = (bytes([msg.kind.value]) + _U64.pack(msg.src) + _U64.pack(msg.dst)
                   + _U32.pack(round(msg.delay_ms * 1000)))
    elif isinstance(msg, LinkStatsReport):
        mtype = TYPE_LINK_STATS
        payload = _U16.pack(len(msg.entries))
        for entry in msg.entries:
            payload += (_vec_bytes(entry.lid, params) + _U64.pack(entry.byte_count)
                        + _U32.pack(entry.utilization_ppm))
    elif isinstance(msg, RuleInstallFrame):
        mtype = TYPE_RULE_INSTALL
        payload = (bytes([0 if msg.install else 1]) + _U64.pack(msg.nonce)
                   + _U64.pack(msg.switch_nid) + _U64.pack(msg.dst_nid)
                   + _vec_bytes(msg.mask, params) + _vec_bytes(msg.value, params)
                   + _U32.pack(msg.priority))
    else:
        raise TypeError(f"not a wire message: {msg!r}")
    return bytes([VERSION, mtype]) + _U16.pack(len(payload)) + payload


class _Cursor:
    def __init__(self, payload: bytes):
        self.buf = payload
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise LengthMismatch("payload shorter than its fields")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u64(self) -> int:
        return _U64.unpack(self.take(8))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def vec(self, params: FidParams) -> BitVector:
        return BitVector.from_bytes(self.take(params.m // 8))

    def opt_vec(self, params: FidParams) -> Optional[BitVector]:
        vec = self.vec(params)
        return None if vec.is_zero() else vec

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise LengthMismatch(f"{len(self.buf) - self.pos} unexpected trailing payload bytes")


def decode(data: bytes, params: FidParams) -> Message:
    """Parse a wire frame; exact inverse of :func:`encode` on valid input."""
    if len(data) < 4:
        raise TruncatedPayload(f"frame of {len(data)} bytes is shorter than the header")
    if data[0] != VERSION:
        raise BadVersion(f"version byte 0x{data[0]:02x}")
    mtype = data[1]
    declared = _U16.unpack(data[2:4])[0]
    if len(data) - 4 < declared:
        raise TruncatedPayload(f"payload has {len(data) - 4} of {declared} declared bytes")
    if len(data) - 4 > declared:
        raise LengthMismatch(f"{len(data) - 4 - declared} bytes beyond declared payload")
    cur = _Cursor(data[4:])
    if mtype == TYPE_DISCOVERY_REQUEST:
        msg: Message = DiscoveryRequest(cur.u64())
    elif mtype == TYPE_DISCOVERY_OFFER:
        msg = DiscoveryOffer(cur.u64(), cur.u64(), cur.vec(params))
    elif mtype == TYPE_RESOURCE_REQUEST:
        nonce = cur.u64()
        kind_byte = cur.u8()
        try:
            kind = NodeKind(kind_byte)
        except ValueError:
            raise LengthMismatch(f"unknown requester kind 0x{kind_byte:02x}") from None
        msg = ResourceRequest(nonce, kind, cur.u64())
    elif mtype == TYPE_RESOURCE_OFFER:
        msg = ResourceOffer(cur.u64(), cur.u64(), cur.vec(params), cur.opt_vec(params))
    elif mtype == TYPE_OFFER_ACCEPTED:
        msg = OfferAccepted(cur.u64(), cur.u64())
    elif mtype == TYPE_RESOURCE_ACCEPTED:
        msg = ResourceAccepted(cur.u64(), cur.u64())
    elif mtype == TYPE_UPDATE:
        msg = Update(cur.u64(), cur.vec(params), cur.opt_vec(params))
    elif mtype == TYPE_LINK_EVENT:
        kind_byte = cur.u8()
        try:
            kind = LinkEventKind(kind_byte)
        except ValueError:
            raise LengthMismatch(f"unknown link event kind 0x{kind_byte:02x}") from None
        msg = LinkEvent(kind, cur.u64(), cur.u64(), cur.u32() / 1000)
    elif mtype == TYPE_LINK_STATS:
        count = cur.u16()
        entries = tuple(StatsEntry(cur.vec(params), cur.u64(), cur.u32())
                        for _ in range(count))
        msg = LinkStatsReport(entries)
    elif mtype == TYPE_RULE_INSTALL:
        op = cur.u8()
        if op not in (0, 1):
            raise LengthMismatch(f"unknown rule op 0x{op:02x}")
        msg = RuleInstallFrame(op == 0, cur.u64(), cur.u64(), cur.u64(),
                               cur.vec(params), cur.vec(params), cur.u32())
    else:
        raise UnknownType(f"type byte 0x{mtype:02x}")
    cur.done()
    return msg


def golden_messages(params: FidParams) -> Tuple[Tuple[str, Message], ...]:
    """Canonical example of every frame type, used by tests and the
    ``dump-protocol`` CLI verb to pin the wire format."""
    m = params.m
    lid_a = BitVector.from_bits(m, [0, 1])
    lid_b = BitVector.from_bits(m, [2, 3])
    tmfid = BitVector.from_bits(m, [0, m - 1])
    return (
        ("DiscoveryRequest", DiscoveryRequest(nonce=1)),
        ("DiscoveryOffer", DiscoveryOffer(nonce=0x0102030405060708, responder_nid=9, tmfid=tmfid)),
        ("ResourceRequest", ResourceRequest(nonce=2, requester_kind=NodeKind.ICN_NODE, attach_nid=1)),
        ("ResourceOffer", ResourceOffer(nonce=2, nid=5, lid=lid_a, ilid=lid_b)),
        ("OfferAccepted", OfferAccepted(nonce=2, nid=5)),
        ("ResourceAccepted", ResourceAccepted(nonce=2, nid=5)),
        ("Update", Update(nid=5, lid=lid_a, tmfid=None)),
        ("LinkEvent", LinkEvent(LinkEventKind.REMOVE, src=3, dst=4, delay_ms=0.0)),
        ("LinkStatsReport", LinkStatsReport((StatsEntry(lid_a, byte_count=1000, utilization_ppm=500000),))),
        ("RuleInstall", RuleInstallFrame(install=True, nonce=2, switch_nid=3, dst_nid=5,
                                         mask=lid_a, value=lid_a, priority=100)),
    )
