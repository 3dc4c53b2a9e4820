"""Fixed-width Bloom-filter link and forwarding identifiers.

Every identifier in a deployment is a bit vector of the same width ``m``
(a multiple of 8).  A link identifier (LID) has exactly ``k`` set bits; a
forwarding identifier (FID) is the bitwise OR of the LIDs along a path.
A packet carrying FID ``f`` is forwarded over a link with LID ``l`` when
``f & l == l``, which admits false positives but never false negatives.

Inside the simulator an identifier is a plain int whose bit ``m - 1 - i``
is bit ``i`` of the vector, and ``m`` lives once, in :class:`FidParams`.
:class:`BitVector` carries its width with it: it is the value type of this
module's public helpers, and the codec and the text exports convert at
their edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Optional, Set


class FidError(Exception):
    """Base error for identifier operations."""


class WidthMismatch(FidError):
    """Operands do not share the same bit width."""


class Exhausted(FidError):
    """No unused LID could be drawn within the retry budget."""


@dataclass(frozen=True)
class BitVector:
    """Immutable bit string of fixed width.

    Bits are numbered MSB-first: bit 0 is the most significant bit of the
    first serialized byte, so ``BitVector.from_bits(8, [0])`` encodes to
    ``b'\\x80'``.
    """

    width: int
    value: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.width % 8 != 0:
            raise ValueError(f"width must be a positive multiple of 8, got {self.width}")
        if self.value < 0 or self.value >> self.width:
            raise ValueError("value does not fit in width")

    @classmethod
    def from_bits(cls, width: int, positions: Iterable[int]) -> "BitVector":
        value = 0
        for pos in positions:
            if not 0 <= pos < width:
                raise ValueError(f"bit position {pos} out of range for width {width}")
            value |= 1 << (width - 1 - pos)
        return cls(width, value)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.width // 8, "big")

    def __or__(self, other: "BitVector") -> "BitVector":
        if self.width != other.width:
            raise WidthMismatch(f"{self.width} != {other.width}")
        return BitVector(self.width, self.value | other.value)

    def __str__(self) -> str:
        return self.to_bytes().hex()


# LIDs and FIDs are plain bit vectors; the distinction is semantic.
LinkId = BitVector
Fid = BitVector


@dataclass(frozen=True)
class FidParams:
    """Deployment-wide identifier parameters."""

    m: int = 256
    k: int = 5

    def __post_init__(self) -> None:
        if self.m <= 0 or self.m % 8 != 0:
            raise ValueError("m must be a positive multiple of 8")
        if not 0 < self.k < self.m:
            raise ValueError("k must satisfy 0 < k < m")


MAX_GEN_RETRIES = 64


def new_lid(rng: Random, registry: Set[int], params: FidParams) -> int:
    """Draw a fresh LID, an int with exactly ``k`` of ``m`` bits set, unique within ``registry``.

    The candidate is added to the registry before returning.  Raises
    :class:`Exhausted` after ``MAX_GEN_RETRIES`` colliding draws, which the
    topology manager treats as resource exhaustion.  A draw makes the
    ``rng.getrandbits`` calls of CPython's ``rng.sample(range(m), k)``, on
    either of its branches (a pool of the positions left while ``m`` is at
    most its set-size threshold, else redraws of taken positions), so the
    LIDs are the values of ``BitVector.from_bits(m, rng.sample(range(m), k))``.
    """
    m, k = params.m, params.k
    top, bits, getrandbits = m - 1, m.bit_length(), rng.getrandbits
    pooled = m <= 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
    for _ in range(MAX_GEN_RETRIES):
        value = 0
        if pooled:
            pool = list(range(m))
            for n in range(m, m - k, -1):
                j = getrandbits(n.bit_length())
                while j >= n:
                    j = getrandbits(n.bit_length())
                value |= 1 << (top - pool[j])
                pool[j] = pool[n - 1]
        else:
            for _ in range(k):
                j = getrandbits(bits)
                while j >= m or value >> (top - j) & 1:
                    j = getrandbits(bits)
                value |= 1 << (top - j)
        if value not in registry:
            registry.add(value)
            return value
    raise Exhausted(f"no unused LID found in {MAX_GEN_RETRIES} draws")


def fid_or(lids: Iterable[LinkId], width: Optional[int] = None) -> Fid:
    """OR a sequence of LIDs into a path FID, built as one vector.

    Every LID must have the same width, ``width`` if it is given.  An empty
    sequence yields the all-zero vector, in which case ``width`` must be
    given.
    """
    acc = 0
    for lid in lids:
        if width is None:
            width = lid.width
        elif lid.width != width:
            raise WidthMismatch(f"{width} != {lid.width}")
        acc |= lid.value
    if width is None:
        raise ValueError("width required for empty OR")
    return BitVector(width, acc)


def fid_matches(fid: Fid, lid: LinkId) -> bool:
    """Bitmask match used by switch flow rules: ``fid & lid == lid``."""
    if fid.width != lid.width:
        raise WidthMismatch(f"{fid.width} != {lid.width}")
    return fid.value & lid.value == lid.value


def lid_fpr(m: int, k: int, n: int) -> Fraction:
    """Exact false-positive rate of a FID OR-ed from n distinct random LIDs.

    The probe is a uniform k-bit LID that is not one of the n.  With
    L = C(m, k) possible LIDs, inclusion-exclusion over the probe bits that
    the FID misses gives the chance that a uniform LID is covered,
    c = sum_j (-1)^j C(k, j) C(C(m-j, k), n) / C(L, n); excluding the path's
    own LIDs gives (c - n/L) / (1 - n/L).  The alternating sum cancels
    heavily, so it is evaluated in exact rationals.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0 < k <= m:
        raise ValueError("k must satisfy 0 < k <= m")
    lids = math.comb(m, k)
    if n >= lids:
        raise ValueError(f"n must leave a LID to probe: n < C({m}, {k}) = {lids}")
    covered = Fraction(sum((-1) ** j * math.comb(k, j) * math.comb(math.comb(m - j, k), n)
                           for j in range(k + 1)),
                       math.comb(lids, n))
    own = Fraction(n, lids)
    return (covered - own) / (1 - own)
