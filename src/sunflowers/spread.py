"""Spread certificates for k-uniform families.

A family is r-spread when every non-empty set T is contained in at most
r^(k-|T|) members.  Only T that are subsets of at least one member can have a
non-zero count, so enumeration runs over member submasks (|F| * 2^k
candidates) instead of all 2^n subsets of the ground set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitset import elements_of, iter_submasks
from .families import SetFamily


@dataclass(frozen=True)
class SpreadViolation:
    """A set t contained in ``count`` members with count > r^(k-|t|)."""

    t: int
    count: int


@dataclass(frozen=True)
class SpreadReport:
    r: float
    violation: Optional[SpreadViolation]

    @property
    def certified(self) -> bool:
        return self.violation is None


def superset_count(family: SetFamily, t: int) -> int:
    """Exact number of members containing the non-empty set t."""
    if t == 0:
        raise ValueError("superset_count requires a non-empty set")
    if t.bit_length() > family.ground_size:
        return 0
    common = np.bitwise_and.reduce(family.holders()[list(elements_of(t))], axis=0)
    return int(np.bitwise_count(common).sum())


def containment_counts(family: SetFamily) -> dict[int, int]:
    """Superset count for every non-empty T contained in at least one member."""
    counts: dict[int, int] = {}
    for m in family.sets:
        for sub in iter_submasks(m):
            counts[sub] = counts.get(sub, 0) + 1
    return counts


def spread_witness(family: SetFamily, r: float, worst: bool = False) -> SpreadReport:
    """Certify the family r-spread or exhibit a violating set.

    The default violation is the first in (|T|, mask-value) order; with
    ``worst=True`` it is the one maximizing count / r^(k-|T|) instead.  The
    comparison is exact integer count against float threshold, no tolerance.
    """
    if len(family) == 0:
        raise ValueError("spread_witness requires a non-empty family")
    if not r > 0:
        raise ValueError(f"r must be positive, got {r}")
    k = family.k
    counts = containment_counts(family)
    best: Optional[SpreadViolation] = None
    best_ratio = 1.0
    for t in sorted(counts, key=lambda m: (m.bit_count(), m)):
        count = counts[t]
        threshold = r ** (k - t.bit_count())
        if count > threshold:
            if not worst:
                return SpreadReport(r=r, violation=SpreadViolation(t=t, count=count))
            ratio = count / threshold
            if ratio > best_ratio:
                best_ratio = ratio
                best = SpreadViolation(t=t, count=count)
    return SpreadReport(r=r, violation=best)


def spreadness(family: SetFamily) -> float:
    """The smallest r for which the family is r-spread.

    Computed as max over non-empty T with |T| < k of count(T)^(1/(k-|T|)).
    Sets T of full size k only require count <= 1, which distinct members
    guarantee, so they never contribute; a 1-uniform family (or one with no
    proper non-empty member subsets) is already 1-spread.
    """
    if len(family) == 0:
        raise ValueError("spreadness requires a non-empty family")
    k = family.k
    best = 1.0
    for t, count in containment_counts(family).items():
        exponent = k - t.bit_count()
        if exponent >= 1:
            best = max(best, _count_root(count, exponent))
    return best


def _count_root(count: int, exponent: int) -> float:
    """count^(1/exponent), exact on perfect powers, else rounded upward.

    The upward rounding keeps spread_witness(family, spreadness(family))
    certified: the returned r satisfies count <= r^exponent in floats.
    """
    root = round(count ** (1.0 / exponent))
    if root**exponent == count:
        return float(root)
    value = count ** (1.0 / exponent)
    while value**exponent < count:
        value = math.nextafter(value, math.inf)
    return value
