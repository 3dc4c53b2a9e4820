"""Records: frozen slots dataclasses whose ``__init__`` writes through the slot descriptors.

Each record is checked against the plain frozen dataclass of the same
fields, which is what it was before: the same parameters, ``==``, ``hash``,
``repr`` and ``dataclasses.replace``, and no assignment.
"""

import dataclasses
import inspect
from dataclasses import MISSING, FrozenInstanceError, field, fields, replace

import pytest

from icnsim import wire
from icnsim.bootstrap import Arm, Broadcast, Notify, Send
from icnsim.deploy import PacketOutCmd
from icnsim.fabric import IcnPacket, LinkChange, PacketIn, SwitchAttached
from icnsim.fid import FidParams
from icnsim.record import record
from icnsim.topology import (DirectedLink, LinkEvent, LinkEventKind, LinkStatsReport, NodeKind,
                             RepairAction, ResourceGrant, RuleInstallFrame, StatsEntry)
from icnsim.wire import (DiscoveryOffer, DiscoveryRequest, OfferAccepted, ResourceAccepted,
                         ResourceOffer, ResourceRequest, Update)

PARAMS = FidParams(m=256, k=5)
STATS = (StatsEntry(0b11, 1000, 500_000), StatsEntry(0b1100, 0, 1))

# Two instances of each record that differ in every field.
SAMPLES = {
    DirectedLink: (DirectedLink(1, 2, 0b11, 0.5, 0.25), DirectedLink(2, 1, 0b1100, 1.0, 0.0)),
    ResourceGrant: (ResourceGrant(5, 0b11, 0b1100, 0b110000, 1, NodeKind.ICN_NODE),
                    ResourceGrant(6, 0b101, 0b1010, None, 2, NodeKind.SDN_SWITCH)),
    LinkEvent: (LinkEvent(LinkEventKind.ADD, 3, 4, 0.5),
                LinkEvent(LinkEventKind.REMOVE, 4, 5, 2.0)),
    RepairAction: (RepairAction(5, 0b1111, 0b11), RepairAction(6, 0b110011, 0b110000)),
    RuleInstallFrame: (RuleInstallFrame(True, 2, 3, 5, 0b11, 0b11, 100),
                       RuleInstallFrame(False, 0, 4, 6, 0b1111, 0b1100, 7)),
    StatsEntry: STATS,
    LinkStatsReport: (LinkStatsReport(STATS), LinkStatsReport(STATS[:1])),
    DiscoveryRequest: (DiscoveryRequest(1), DiscoveryRequest(2 ** 64 - 1)),
    DiscoveryOffer: (DiscoveryOffer(1, 9, 0b11), DiscoveryOffer(2, 10, 0b1100)),
    ResourceRequest: (ResourceRequest(2, NodeKind.ICN_NODE, 1),
                      ResourceRequest(3, NodeKind.SDN_SWITCH, 4)),
    ResourceOffer: (ResourceOffer(2, 5, 0b11, 0b1100), ResourceOffer(3, 6, 0b110000, None)),
    OfferAccepted: (OfferAccepted(2, 5), OfferAccepted(3, 6)),
    ResourceAccepted: (ResourceAccepted(2, 5), ResourceAccepted(3, 6)),
    Update: (Update(5, 0b11, 0b1111), Update(6, 0b1100, None)),
    SwitchAttached: (SwitchAttached("s2", "s1"), SwitchAttached("s3", "tm")),
    PacketIn: (PacketIn("s1", 0, b"\x00\x01"), PacketIn("s2", 1, b"")),
    LinkChange: (LinkChange(LinkEventKind.ADD, "s1", "s2"),
                 LinkChange(LinkEventKind.REMOVE, "s2", "s3")),
    Broadcast: (Broadcast(DiscoveryRequest(1)), Broadcast(DiscoveryRequest(2))),
    Send: (Send(DiscoveryRequest(1), 2, 0b11), Send(OfferAccepted(2, 5), 3, 0b1100)),
    Arm: (Arm(100, 1), Arm(200, 2)),
    Notify: (Notify(5, Update(5, 0b11)), Notify(6, ResourceAccepted(2, 6))),
    PacketOutCmd: (PacketOutCmd(1, IcnPacket(0, b"x", 1)), PacketOutCmd(2, IcnPacket(3, b"", 2))),
}
RECORDS = list(SAMPLES)


def plain(cls):
    """The frozen dataclass with ``cls``'s fields and defaults, as the records were."""
    spec = [(f.name, f.type) if f.default is MISSING else (f.name, f.type, field(default=f.default))
            for f in fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def values(obj):
    return [getattr(obj, f.name) for f in fields(obj)]


def test_samples_cover_every_frame_and_differ_in_every_field():
    assert set(wire.LAYOUTS) <= set(SAMPLES) and len(SAMPLES) == 22
    for a, b in SAMPLES.values():
        assert all(x != y for x, y in zip(values(a), values(b)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        a, b = SAMPLES[cls]
        for f in fields(cls):
            with pytest.raises(FrozenInstanceError):
                setattr(a, f.name, getattr(b, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(a, f.name)
        assert not hasattr(a, "__dict__")  # slots only

    def test_init_takes_the_plain_dataclass_parameters(self, cls):
        params = lambda c: [(p.name, p.kind, p.default)
                            for p in inspect.signature(c).parameters.values()]
        assert params(cls) == params(plain(cls))
        assert "set_" + fields(cls)[0].name in cls.__init__.__code__.co_names

    def test_eq_hash_and_repr_as_a_plain_dataclass(self, cls):
        a, b = SAMPLES[cls]
        twin = plain(cls)
        copy = cls(*values(a))
        assert copy == a and hash(copy) == hash(a) and copy is not a
        assert a != b and (a == b) == (twin(*values(a)) == twin(*values(b)))
        assert hash(a) == hash(twin(*values(a)))
        assert repr(a) == repr(twin(*values(a)))
        assert a != twin(*values(a))  # a different class, as two dataclasses are

    def test_keywords_and_defaults(self, cls):
        a, _ = SAMPLES[cls]
        assert cls(**{f.name: getattr(a, f.name) for f in fields(cls)}) == a
        required = {f.name: getattr(a, f.name) for f in fields(cls) if f.default is MISSING}
        short = cls(**required)
        for f in fields(cls):
            assert getattr(short, f.name) == (required[f.name] if f.default is MISSING
                                              else f.default)
        with pytest.raises(TypeError):
            cls(*values(a), None)  # one positional too many
        if required:
            with pytest.raises(TypeError):
                cls()

    def test_replace_field_by_field(self, cls):
        a, b = SAMPLES[cls]
        twin = plain(cls)
        for f in fields(cls):
            changed = replace(a, **{f.name: getattr(b, f.name)})
            assert type(changed) is cls and getattr(changed, f.name) == getattr(b, f.name)
            assert repr(changed) == repr(replace(twin(*values(a)), **{f.name: getattr(b, f.name)}))
        assert replace(a) == a


@pytest.mark.parametrize("cls", list(wire.LAYOUTS), ids=lambda cls: cls.__name__)
def test_decode_builds_exactly_the_encoded_class(cls):
    for msg in SAMPLES[cls]:
        decoded = wire.decode(wire.encode(msg, PARAMS), PARAMS)
        assert type(decoded) is cls and decoded == msg
        for entry in getattr(decoded, "entries", ()):
            assert type(entry) is StatsEntry


def test_decoded_message_is_frozen():
    msg = wire.decode(wire.encode(SAMPLES[RuleInstallFrame][0], PARAMS), PARAMS)
    with pytest.raises(FrozenInstanceError):
        msg.priority = 1


def test_a_post_init_or_a_default_factory_is_refused():
    class WithPostInit:
        x: int

        def __post_init__(self):
            pass

    class WithFactory:
        xs: list = field(default_factory=list)

    for cls in (WithPostInit, WithFactory):
        with pytest.raises(TypeError, match="no __post_init__ and no default factory"):
            record(cls)
