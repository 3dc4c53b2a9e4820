"""Identifier core: bit vectors, LID generation, match semantics, FPR."""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from icnsim.fid import (MAX_GEN_RETRIES, BitVector, Exhausted, FidParams, WidthMismatch,
                        fid_matches, fid_or, lid_fpr, new_lid)


def bv(width, value):
    return BitVector(width, value)


class TestBitVector:
    def test_bit_zero_is_msb_of_first_byte(self):
        assert BitVector.from_bits(8, [0]).to_bytes() == b"\x80"
        assert BitVector.from_bits(16, [15]).to_bytes() == b"\x00\x01"

    def test_serialization_width(self):
        assert len(BitVector(256, 0).to_bytes()) == 32

    def test_round_trip(self):
        vec = BitVector.from_bits(64, [0, 7, 33, 63])
        assert int.from_bytes(vec.to_bytes(), "big") == vec.value

    def test_width_must_be_multiple_of_eight(self):
        with pytest.raises(ValueError):
            BitVector(7, 0)

    def test_value_must_fit(self):
        with pytest.raises(ValueError):
            BitVector(8, 256)

    def test_or(self):
        assert (bv(8, 0b0011) | bv(8, 0b0101)).value == 0b0111

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            bv(8, 1) | bv(16, 1)

    @settings(derandomize=True, max_examples=200)
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_codec_round_trip_property(self, value):
        vec = BitVector(64, value)
        assert int.from_bytes(vec.to_bytes(), "big") == value
        assert len(vec.to_bytes()) == 8

    def test_popcount_and_positions(self):
        vec = BitVector.from_bits(16, [1, 2, 13])
        assert vec.value.bit_count() == 3


class TestNewLid:
    def test_popcount_forced(self):
        params = FidParams(m=8, k=2)
        lid = new_lid(Random(1), set(), params)
        assert BitVector(8, lid).value.bit_count() == 2  # an int of the width, k bits set

    def test_exhausted_by_pigeonhole(self):
        params = FidParams(m=8, k=2)
        registry = {BitVector.from_bits(8, [i, j]).value for i in range(8) for j in range(i + 1, 8)}
        assert len(registry) == 28
        with pytest.raises(Exhausted):
            new_lid(Random(1), registry, params)

    def test_ten_thousand_unique_draws(self):
        params = FidParams(m=256, k=5)
        rng = Random(42)
        registry = set()
        lids = [new_lid(rng, registry, params) for _ in range(10_000)]
        assert len(set(lids)) == 10_000
        assert all(BitVector(256, lid).value.bit_count() == 5 for lid in lids)

    def test_deterministic_given_seed(self):
        params = FidParams(m=256, k=5)
        a = [new_lid(Random(7), set(), params) for _ in range(1)]
        b = [new_lid(Random(7), set(), params) for _ in range(1)]
        assert a == b

    def test_candidate_added_to_registry(self):
        params = FidParams(m=64, k=3)
        registry = set()
        lid = new_lid(Random(3), registry, params)
        assert lid in registry

    def test_never_all_zero(self):
        params = FidParams(m=8, k=1)
        rng = Random(5)
        for _ in range(50):
            assert new_lid(rng, set(), params) != 0


def sampled_lid(rng, registry, params):
    """``new_lid`` as the sum of its parts: ``random.sample`` and ``from_bits``."""
    for _ in range(MAX_GEN_RETRIES):
        candidate = BitVector.from_bits(params.m, rng.sample(range(params.m), params.k)).value
        if candidate not in registry:
            registry.add(candidate)
            return candidate
    raise Exhausted


def draw(lid_source, rng, registry, params):
    try:
        return lid_source(rng, registry, params)
    except Exhausted:
        return Exhausted


class TestLidStream:
    # new_lid inlines random.sample; the LIDs, and so every golden run, must not
    # change.  sample keeps a pool of positions while m is at most its set-size
    # threshold (21, or 85 for 6 <= k <= 21) and tracks picks in a set above it:
    # (8, 3), (16, 5) and (64, 7) take the pool branch, the others the set.

    @pytest.mark.parametrize("m,k", [(8, 3), (16, 5), (24, 5), (32, 3), (64, 7), (256, 5),
                                     (256, 7)])
    def test_draws_equal_random_sample(self, m, k):
        params = FidParams(m=m, k=k)
        ours, reference = Random(m * 100 + k), Random(m * 100 + k)
        registry, expected = set(), set()
        for _ in range(40):
            assert draw(new_lid, ours, registry, params) == draw(sampled_lid, reference,
                                                                 expected, params)
        assert registry == expected
        assert ours.getstate() == reference.getstate()

    def test_nearly_full_registry_retries_then_exhausts(self):
        params = FidParams(m=8, k=3)
        every = [BitVector.from_bits(8, bits).value for bits in combinations(range(8), 3)]
        registry, expected = set(every[2:]), set(every[2:])  # 2 of the 56 LIDs free
        ours, reference = Random(4), Random(4)
        outcomes = [draw(new_lid, ours, registry, params) for _ in range(4)]
        assert outcomes == [draw(sampled_lid, reference, expected, params) for _ in range(4)]
        assert Exhausted in outcomes and set(every[:2]) & set(outcomes)
        assert registry == expected
        assert ours.getstate() == reference.getstate()


class TestFidParams:
    @pytest.mark.parametrize("m", [0, -8, 12])
    def test_width_must_be_a_positive_multiple_of_eight(self, m):
        with pytest.raises(ValueError, match="m must be a positive multiple of 8"):
            FidParams(m=m, k=3)

    @pytest.mark.parametrize("k", [0, 8])
    def test_k_must_lie_between_zero_and_m(self, k):
        with pytest.raises(ValueError, match="k must satisfy 0 < k < m"):
            FidParams(m=8, k=k)


class TestFidOps:
    def test_empty_or_is_zero(self):
        assert fid_or([], width=8) == BitVector(8, 0)

    def test_or_by_hand(self):
        assert fid_or([bv(8, 0b00000011), bv(8, 0b00001100)]) == bv(8, 0b00001111)

    def test_single_identity(self):
        lid = bv(8, 0b00100001)
        assert fid_or([lid]) == lid

    def test_or_of_mixed_widths_rejected(self):
        with pytest.raises(WidthMismatch):
            fid_or([bv(8, 1), bv(16, 2)])
        with pytest.raises(WidthMismatch):
            fid_or([bv(16, 2)], width=8)

    def test_matches_by_hand(self):
        assert fid_matches(bv(8, 0b00001111), bv(8, 0b00000011))
        assert not fid_matches(bv(8, 0b00001111), bv(8, 0b00110000))

    def test_reflexive(self):
        f = bv(8, 0b10100101)
        assert fid_matches(f, f)

    def test_false_positive_semantics(self):
        # 0b00000110 was never OR-ed in, yet its bits are covered.
        assert fid_matches(bv(8, 0b00001111), bv(8, 0b00000110))

    def test_match_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            fid_matches(bv(8, 1), bv(16, 1))

    @settings(derandomize=True, max_examples=200)
    @given(st.data())
    def test_no_false_negatives(self, data):
        rng = Random(data.draw(st.integers(0, 2 ** 32)))
        params = FidParams(m=64, k=3)
        registry = set()
        lids = [BitVector(64, new_lid(rng, registry, params))
                for _ in range(data.draw(st.integers(1, 10)))]
        fid = fid_or(lids)
        assert all(fid_matches(fid, lid) for lid in lids)

    @settings(derandomize=True, max_examples=200)
    @given(st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1), st.integers(0, 2 ** 16 - 1))
    def test_monotonicity(self, f, l, x):
        fid, lid, extra = bv(16, f), bv(16, l), bv(16, x)
        if fid_matches(fid, lid):
            assert fid_matches(fid | extra, lid)


def brute_force_lid_fpr(m, k, n):
    """Average FP rate over every path of n distinct LIDs and every other probe."""
    lids = [sum(1 << b for b in bits) for bits in combinations(range(m), k)]
    unions = Counter()
    for path in combinations(lids, n):
        union = 0
        for lid in path:
            union |= lid
        unions[union] += 1
    hits = 0
    for union, paths in unions.items():
        covered = sum(1 for probe in lids if probe & union == probe)
        hits += paths * (covered - n)  # the path's own LIDs are not probes
    return Fraction(hits, sum(unions.values()) * (len(lids) - n))


class TestLidFpr:
    @pytest.mark.parametrize("m,k,n", [(8, 2, 2), (8, 2, 3), (8, 3, 2), (16, 2, 3)])
    def test_equals_brute_force_enumeration(self, m, k, n):
        assert lid_fpr(m, k, n) == brute_force_lid_fpr(m, k, n)

    def test_zero_links_never_match(self):
        assert lid_fpr(256, 5, 0) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            lid_fpr(256, 5, -1)


def test_empirical_fpr_converges_medium_width():
    # Monte Carlo against the exact rate: within 3 standard errors of
    # lid_fpr.  A fresh path is drawn periodically so the estimate covers the
    # unconditional rate, not one FID realization.
    m, k, n, trials = 256, 5, 10, 100_000
    rng = Random(1234)
    params = FidParams(m=m, k=k)
    hits = 0
    per_path = 500
    for _ in range(trials // per_path):
        registry = set()
        path = [BitVector(m, new_lid(rng, registry, params)) for _ in range(n)]
        fid = fid_or(path)
        path_set = set(path)
        for _ in range(per_path):
            probe = BitVector.from_bits(m, rng.sample(range(m), k))
            while probe in path_set:
                probe = BitVector.from_bits(m, rng.sample(range(m), k))
            if fid_matches(fid, probe):
                hits += 1
    p_hat = hits / trials
    p_theory = float(lid_fpr(m, k, n))
    se = math.sqrt(max(p_hat, 1e-12) * (1 - p_hat) / trials)
    assert abs(p_hat - p_theory) <= 3 * se
