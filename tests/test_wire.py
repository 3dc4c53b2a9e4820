"""Wire codec: golden vectors, round trips, malformed frames."""

import pytest
from hypothesis import given, settings, strategies as st

from icnsim.fid import BitVector, FidParams
from icnsim.topology import LinkEvent, LinkEventKind, LinkStatsReport, NodeKind, StatsEntry
from icnsim import wire
from icnsim.wire import (BadVersion, DiscoveryOffer, DiscoveryRequest, LengthMismatch,
                         OfferAccepted, ResourceAccepted, ResourceOffer, ResourceRequest,
                         RuleInstallFrame, TruncatedPayload, UnknownType, Update,
                         decode, encode, golden_messages)

P256 = FidParams(m=256, k=5)

LID_A = BitVector.from_bits(256, [0, 1]).value      # c0 00...
LID_B = BitVector.from_bits(256, [2, 3]).value      # 30 00...
TMFID = BitVector.from_bits(256, [0, 255]).value    # 80 ... 01

from golden_vectors import GOLDEN_HEX


class TestGoldenVectors:
    @pytest.mark.parametrize("name,msg", golden_messages(P256), ids=lambda x: str(x)[:24])
    def test_encode_matches_fixture(self, name, msg):
        assert encode(msg, P256).hex() == GOLDEN_HEX[name]

    @pytest.mark.parametrize("name,msg", golden_messages(P256), ids=lambda x: str(x)[:24])
    def test_round_trip(self, name, msg):
        assert decode(encode(msg, P256), P256) == msg

    def test_all_ten_types_covered(self):
        assert len(golden_messages(P256)) == 10
        assert set(GOLDEN_HEX) == {name for name, _ in golden_messages(P256)}

    def test_discovery_request_total_length(self):
        assert len(encode(DiscoveryRequest(1), P256)) == 12

    def test_resource_offer_payload_length(self):
        frame = encode(ResourceOffer(2, 5, LID_A, LID_B), P256)
        assert int.from_bytes(frame[2:4], "big") == 80  # 8 + 8 + 32 + 32


class TestDecodeErrors:
    def test_bad_version(self):
        with pytest.raises(BadVersion):
            decode(bytes.fromhex("02010008") + bytes(8), P256)

    def test_unknown_type(self):
        with pytest.raises(UnknownType):
            decode(bytes.fromhex("01080008") + bytes(8), P256)

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayload):
            decode(b"\x01\x01", P256)

    def test_truncated_payload(self):
        with pytest.raises(TruncatedPayload):
            decode(bytes.fromhex("01010008") + bytes(4), P256)

    def test_trailing_bytes(self):
        with pytest.raises(LengthMismatch):
            decode(bytes.fromhex("01010008") + bytes(9), P256)

    def test_declared_length_too_short_for_fields(self):
        with pytest.raises(LengthMismatch):
            decode(bytes.fromhex("01020008") + bytes(8), P256)  # offer needs 48

    def test_unknown_requester_kind(self):
        payload = bytes(8) + b"\x07" + bytes(8)
        frame = bytes.fromhex("01030011") + payload
        with pytest.raises(LengthMismatch):
            decode(frame, P256)

    def test_unknown_link_event_kind(self):
        frame = bytearray(encode(LinkEvent(LinkEventKind.REMOVE, 3, 4), P256))
        frame[4] = 2  # the kind byte; 0 is ADD and 1 REMOVE
        with pytest.raises(LengthMismatch):
            decode(bytes(frame), P256)


class TestSemantics:
    def test_absent_ilid_encodes_as_zero(self):
        frame = encode(ResourceOffer(2, 5, LID_A, None), P256)
        assert frame[4 + 16 + 32:] == bytes(32)
        assert decode(frame, P256).ilid is None

    def test_absent_update_tmfid(self):
        msg = decode(encode(Update(5, LID_A, None), P256), P256)
        assert msg.tmfid is None

    def test_update_with_tmfid(self):
        msg = decode(encode(Update(5, LID_A, TMFID), P256), P256)
        assert msg.tmfid == TMFID

    def test_width_enforced(self):
        # An identifier that does not fit in m bits, in an ID and an OPT_ID field.
        for fid in (1 << 256, -1):
            with pytest.raises(ValueError):
                encode(DiscoveryOffer(1, 2, fid), P256)
            with pytest.raises(ValueError):
                encode(ResourceOffer(2, 5, LID_A, fid), P256)

    def test_link_event_round_trip_delay(self):
        evt = LinkEvent(LinkEventKind.ADD, 3, 9, delay_ms=1.5)
        assert decode(encode(evt, P256), P256) == evt

    def test_stats_report_empty(self):
        report = LinkStatsReport(())
        assert decode(encode(report, P256), P256) == report

    def test_stats_report_multi_entry(self):
        report = LinkStatsReport((StatsEntry(LID_A, 10, 1), StatsEntry(LID_B, 0, 0)))
        assert decode(encode(report, P256), P256) == report

    def test_rule_remove_round_trip(self):
        frame = RuleInstallFrame(False, 0, 2, 3, LID_A, LID_A, 100)
        assert decode(encode(frame, P256), P256) == frame


U64 = st.integers(0, 2 ** 64 - 1)
U32 = st.integers(0, 2 ** 32 - 1)


def any_message(m):
    """Every frame type at width m; an optional identifier is absent or has set bits."""
    ident = st.integers(0, 2 ** m - 1)
    opt_ident = st.none() | st.integers(1, 2 ** m - 1)
    entries = st.lists(st.builds(StatsEntry, ident, U64, U32), max_size=4).map(tuple)
    return st.one_of(
        st.builds(DiscoveryRequest, U64),
        st.builds(DiscoveryOffer, U64, U64, ident),
        st.builds(ResourceRequest, U64, st.sampled_from(list(NodeKind)), U64),
        st.builds(ResourceOffer, U64, U64, ident, opt_ident),
        st.builds(OfferAccepted, U64, U64),
        st.builds(ResourceAccepted, U64, U64),
        st.builds(Update, U64, ident, opt_ident),
        st.builds(LinkEvent, st.sampled_from(list(LinkEventKind)), U64, U64,
                  U32.map(lambda us: us / 1000)),
        st.builds(LinkStatsReport, entries),
        st.builds(RuleInstallFrame, st.booleans(), U64, U64, U64, ident, ident, U32),
    )


@settings(derandomize=True, max_examples=400)
@given(st.sampled_from([8, 64, 256]).flatmap(lambda m: st.tuples(st.just(m), any_message(m))))
def test_round_trip_property(width_and_msg):
    m, msg = width_and_msg
    params = FidParams(m=m, k=2)
    assert decode(encode(msg, params), params) == msg


def test_small_width_vectors():
    params = FidParams(m=8, k=2)
    offer = DiscoveryOffer(1, 2, 0b00001111)
    frame = encode(offer, params)
    assert frame.hex() == "0102" + "0011" + "0000000000000001" + "0000000000000002" + "0f"
    assert decode(frame, params) == offer
