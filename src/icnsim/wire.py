"""Binary codec for the bootstrap protocol and control-channel frames.

Every frame is ``[version=0x01][type: 1 byte][payload length: 2 bytes BE]``
followed by the payload.  :data:`LAYOUTS` is the format's single statement:
for each message class, its type byte and the kinds of its payload fields in
dataclass field order.  :func:`encode` and :func:`decode` both read it, and
nothing else in the package states a type byte or a field order.

Integers are big-endian.  LIDs and FIDs are ints in the messages and
occupy ``m/8`` bytes on the wire, big-endian, which is the MSB-first bit
order of a :class:`~icnsim.fid.BitVector`; an absent one is all zeros (a
real identifier always has set bits).  :func:`encode` raises
``ValueError`` for an identifier that does not fit in ``m`` bits.  A
``LinkStatsReport`` payload is a u16 record count followed by that many
``StatsEntry`` records.  :func:`golden_messages` holds one golden
message per frame type; ``icnsim dump-protocol`` prints their encodings.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from collections import namedtuple
from typing import Dict, Optional, Tuple, Union

from .fid import BitVector, FidParams
from .record import record
from .topology import (LinkEvent, LinkEventKind, LinkStatsReport, NodeKind, RuleInstallFrame,
                       StatsEntry)

VERSION = 0x01


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


class BadField(CodecError):
    """A kind or rule-op byte with no meaning."""


@record
class DiscoveryRequest:
    nonce: int


@record
class DiscoveryOffer:
    nonce: int
    responder_nid: int
    tmfid: int


@record
class ResourceRequest:
    nonce: int
    requester_kind: NodeKind
    attach_nid: int


@record
class ResourceOffer:
    nonce: int
    nid: int
    lid: int
    ilid: Optional[int]  # absent for SDN switches


@record
class OfferAccepted:
    nonce: int
    nid: int


@record
class ResourceAccepted:
    nonce: int
    nid: int


@record
class Update:
    """TM -> ICN node link notification: the LID of the receiver's link towards ``nid``.

    Only the TM sends it, FID-routed.  Addressed to the receiver itself
    (``nid`` is its own NID), it carries the LID of the receiver's first hop
    towards the TM and a ``tmfid``: the receiver's new TM path (initial
    configuration and resilience repairs).
    """

    nid: int
    lid: int
    tmfid: Optional[int] = None


Message = Union[DiscoveryRequest, DiscoveryOffer, ResourceRequest, ResourceOffer,
                OfferAccepted, ResourceAccepted, Update,
                LinkEvent, LinkStatsReport, RuleInstallFrame]

_HEADER = struct.Struct(">BBH")
_U16 = struct.Struct(">H")
MAX_PAYLOAD = 0xFFFF  # the header's u16 length
MAX_DELAY_MS = 0xFFFF_FFFF / 1000  # a LinkEvent delay is a u32 count of microseconds

# A field kind: its struct code ("{n}" is the identifier width in bytes) and
# the expressions ("{}" is the value) that convert it to and from its packed value.
_Kind = namedtuple("_Kind", "code to_wire from_wire", defaults=("{}", "{}"))


def _id_bytes(fid: Optional[int], m: int) -> bytes:
    if fid is None:
        return bytes(m // 8)
    try:
        return fid.to_bytes(m // 8, "big")
    except OverflowError:  # negative, or wider than m
        raise ValueError(f"identifier {fid:#x} does not fit in m = {m} bits") from None


def _rule_op(byte: int) -> bool:
    if byte > 1:
        raise ValueError(f"unknown rule op 0x{byte:02x}")
    return byte == 0


U64 = _Kind("Q")
U32 = _Kind("I")
ID = _Kind("{n}s", "_id_bytes({}, m)", "int.from_bytes({}, 'big')")
OPT_ID = _Kind("{n}s", "_id_bytes({}, m)", "int.from_bytes({}, 'big') or None")
NODE_KIND = _Kind("B", "{}.value", "NodeKind({})")
LINK_KIND = _Kind("B", "{}.value", "LinkEventKind({})")
RULE_OP = _Kind("B", "0 if {} else 1", "_rule_op({})")
DELAY_US = _Kind("I", "round({} * 1000)", "{} / 1000")

LAYOUTS: Dict[type, Tuple[int, Tuple[_Kind, ...]]] = {
    DiscoveryRequest: (0x01, (U64,)),
    DiscoveryOffer: (0x02, (U64, U64, ID)),
    ResourceRequest: (0x03, (U64, NODE_KIND, U64)),
    ResourceOffer: (0x04, (U64, U64, ID, OPT_ID)),
    OfferAccepted: (0x05, (U64, U64)),
    ResourceAccepted: (0x06, (U64, U64)),
    Update: (0x07, (U64, ID, OPT_ID)),
    LinkEvent: (0x10, (LINK_KIND, U64, U64, DELAY_US)),
    LinkStatsReport: (0x11, (ID, U64, U32)),  # of each StatsEntry record
    RuleInstallFrame: (0x12, (RULE_OP, U64, U64, U64, ID, ID, U32)),
}
_RECORDS = {LinkStatsReport: StatsEntry}  # payload: a u16 count, then the records


class _Layout:
    """One entry of :data:`LAYOUTS` compiled for identifier width ``m``: a
    ``struct`` of a whole frame, header included (or of one record), and two
    functions generated with one conversion per field.  ``encode(obj)`` packs
    an object; ``decode(*values)`` builds one from the unpacked values
    through its class, ``cls(v0, ...)``."""

    def __init__(self, frame_cls: type, type_byte: int, kinds: Tuple[_Kind, ...], m: int):
        self.type_byte = type_byte
        self.records = frame_cls in _RECORDS
        cls = _RECORDS.get(frame_cls, frame_cls)
        names = [f.name for f in dataclasses.fields(cls)]
        assert len(names) == len(kinds), f"{len(kinds)} kinds for the fields of {cls.__name__}"
        header = "" if self.records else "BBH"  # version, type, length: folded into one struct
        self.struct = struct.Struct((">" + header + "".join(k.code for k in kinds)).format(n=m // 8))
        self.payload = self.struct.size - (0 if self.records else _HEADER.size)
        head = "" if self.records else f"{VERSION}, {type_byte}, {self.payload}, "
        packed = ", ".join(k.to_wire.format("obj." + n) for n, k in zip(names, kinds))
        unpacked = ("" if self.records else "version, mtype, size, ") + ", ".join(
            f"v{i}" for i in range(len(kinds)))
        fields = ", ".join(k.from_wire.format(f"v{i}") for i, k in enumerate(kinds))
        source = (f"def encode(obj):\n    return pack({head}{packed})\n"
                  f"def decode({unpacked}):\n    return cls({fields})\n")
        scope = dict(globals(), pack=self.struct.pack, cls=cls, m=m)
        exec(source, scope)
        self.encode, self.decode = scope["encode"], scope["decode"]


@functools.lru_cache(maxsize=8)
def _layouts(m: int) -> Dict[object, _Layout]:
    """Every layout at width ``m``, keyed by message class and by type byte."""
    table: Dict[object, _Layout] = {}
    for cls, (type_byte, kinds) in LAYOUTS.items():
        table[cls] = table[type_byte] = _Layout(cls, type_byte, kinds, m)
    return table


def largest_payload(m: int) -> int:
    """Payload bytes of the longest frame at width ``m``, a record list holding one record."""
    return max(layout.payload + 2 * layout.records for layout in _layouts(m).values())


def encode(msg: Message, params: FidParams) -> bytes:
    """Serialize a message to its wire frame."""
    layout = _layouts(params.m).get(type(msg))
    if layout is None:
        raise TypeError(f"not a wire message: {msg!r}")
    if not layout.records:
        return layout.encode(msg)
    payload = _U16.pack(len(msg.entries)) + b"".join(map(layout.encode, msg.entries))
    return _HEADER.pack(VERSION, layout.type_byte, len(payload)) + payload


def _expect(declared: int, needed: int) -> None:
    if declared < needed:
        raise LengthMismatch("payload shorter than its fields")
    if declared > needed:
        raise LengthMismatch(f"{declared - needed} unexpected trailing payload bytes")


def decode(data: bytes, params: FidParams) -> Message:
    """Parse a wire frame; exact inverse of :func:`encode` on valid input."""
    if len(data) < 4:
        raise TruncatedPayload(f"frame of {len(data)} bytes is shorter than the header")
    version, mtype, declared = _HEADER.unpack_from(data)
    if version != VERSION:
        raise BadVersion(f"version byte 0x{version:02x}")
    if len(data) - 4 < declared:
        raise TruncatedPayload(f"payload has {len(data) - 4} of {declared} declared bytes")
    if len(data) - 4 > declared:
        raise LengthMismatch(f"{len(data) - 4 - declared} bytes beyond declared payload")
    layout = _layouts(params.m).get(mtype)
    if layout is None:
        raise UnknownType(f"type byte 0x{mtype:02x}")
    if layout.records:
        if declared < 2:
            raise LengthMismatch("payload shorter than its record count")
        _expect(declared, 2 + _U16.unpack_from(data, 4)[0] * layout.payload)
    else:
        _expect(declared, layout.payload)
    try:  # a kind or op byte with no meaning raises ValueError
        if layout.records:
            return LinkStatsReport(tuple(layout.decode(*record)
                                         for record in layout.struct.iter_unpack(data[6:])))
        return layout.decode(*layout.struct.unpack(data))
    except ValueError as exc:
        raise BadField(str(exc)) from None


def golden_messages(params: FidParams) -> Tuple[Tuple[str, Message], ...]:
    """Canonical example of every frame type, used by tests and the
    ``dump-protocol`` CLI verb to pin the wire format."""
    m = params.m
    lid_a = BitVector.from_bits(m, [0, 1]).value
    lid_b = BitVector.from_bits(m, [2, 3]).value
    tmfid = BitVector.from_bits(m, [0, m - 1]).value
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
