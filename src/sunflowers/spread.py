"""Spread certificates for k-uniform families.

A family is r-spread when every non-empty set T is contained in at most
r^(k-|T|) members.  Only T that are subsets of at least one member can have a
non-zero count, so the counts are taken one level |T| = j at a time over the
j-subsets of members: each is named by its colex rank, sum_i C(e_i, i+1) over
its ascending elements e_0 < e_1 < ..., and a level is the ascending distinct
ranks with their multiplicities.  Among sets of one size, colex order is
mask-value order, so ascending rank is ascending mask.  A level's ranks are
gathered from the family's element matrix
(:meth:`~sunflowers.families.SetFamily.elements`, one row of ascending
elements per member), the family's stored form, so certifying never builds
masks.  Each binomial is computed from the element values themselves, by
C(e, i+1) = C(e, i)·(e - i) / (i + 1), and added into the ranks as soon as
it is computed, so no table over the ground set is built and the work does
not grow with n.  Ranks are summed in ``uint32`` when C(n, j) allows it.  A
level whose C(n, j) bins fit the byte budget ``_KERNEL_TILE_BYTES`` as an
int64 histogram, and are no more than its ranks or 2^10, is counted by
``np.bincount`` over tiles of members whose ranks fit the same budget, so its
memory does not grow with |F|; the ranks of any other level are sorted, in
one block.  Levels are counted on demand and cached on the family, so a
caller that stops at the first violating level pays only for the levels below
it, and a later call reuses them.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .bitset import _KERNEL_TILE_BYTES, mask_from_elements
from .families import SetFamily, link


@dataclass(frozen=True)
class SpreadViolation:
    """A set T, by its ascending elements, in ``count`` > r^(k-|T|) members; ``t`` is its mask."""

    elements: tuple[int, ...]
    count: int

    @property
    def t(self) -> int:
        return mask_from_elements(self.elements)


@dataclass(frozen=True)
class SpreadReport:
    r: float
    violation: Optional[SpreadViolation]

    @property
    def certified(self) -> bool:
        return self.violation is None


def superset_count(family: SetFamily, t: int) -> int:
    """Exact number of members containing the non-empty set t: the size of
    its link, a selection of the rows of the element matrix."""
    t = operator.index(t)
    if t <= 0:
        raise ValueError(f"superset_count requires a non-empty set as a non-negative mask, got {t}")
    return len(link(family, t)) if t.bit_count() <= family.k else 0


def level_counts(family: SetFamily, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Superset counts of the j-subsets of members, 1 <= j <= k.

    Returns ``(ranks, counts)``: the distinct colex ranks in ascending order
    (``int64``, or Python ints in an object array when some C(n, i), i <= k,
    reaches 2^63) and, for each, the number of members containing that set.
    Each binomial C(e, i) of a rank is computed from the element e of the
    member by the exact recurrence in i, with no binomial table.  The ranks
    are summed in ``uint32`` when they fit it and counted by a tiled dense
    histogram or by a sort (see the module docstring); only the distinct ones
    are widened.  :func:`rank_to_elements` turns a rank back into its set.
    Cached on the family.
    """
    if not 1 <= j <= family.k:
        raise ValueError(f"level j={j} outside 1..{family.k}")
    levels = family._levels
    if j not in levels:
        levels[j] = _count_level(family.ground_size, family.elements(), j)
    return levels[j]


def _count_level(n: int, elements: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    k = elements.shape[1]
    # Each C(e, i), e < n and i <= j, and so each colex rank of a j-set, is below
    # C(n, min(j, n // 2)): ranks are summed in the narrowest dtype that holds
    # this bound.  C(e, i+1) = C(e, i)·(e - i) / (i + 1) is computed from the
    # elements, and its product (i+1)·C(e, i+1) is below j times the bound: the
    # steps run in the narrowest dtype that holds that.
    bound = math.comb(n, min(j, n // 2))
    rank_dtype, step_dtype = (np.uint32 if b <= 2**32 else np.int64 if b <= 2**63 else object for b in (bound, j * bound))
    positions = _position_combinations(k, j)
    # Every rank is below C(n, j).  A dense int64 histogram of those bins costs a pass over the bins and one
    # over the ranks, where a sort makes several over the ranks after a fixed cost of about 2^10 bins' pass:
    # the histogram counts a level whose bins fit the budget and are no more than its ranks or 2^10.
    bins = math.comb(n, j)
    if 8 * bins > _KERNEL_TILE_BYTES or bins > max(len(elements) * len(positions), 1 << 10):
        ranks, counts = np.unique(_level_ranks(elements, positions, rank_dtype, step_dtype), return_counts=True)
    else:  # summed over tiles whose ranks, as the int64 that bincount reads, fit the budget
        tile = max(1, _KERNEL_TILE_BYTES // (8 * len(positions)))
        counts = np.zeros(bins, dtype=np.intp)
        for start in range(0, len(elements), tile):
            ranks = _level_ranks(elements[start : start + tile], positions, rank_dtype, step_dtype)
            counts += np.bincount(ranks.ravel().astype(np.intp, copy=False), minlength=bins)
        ranks = np.flatnonzero(counts)  # ascending
        counts = counts[ranks]
    ranks = ranks.astype(object if math.comb(n, min(k, n // 2)) >= 2**63 else np.int64, copy=False)
    ranks.setflags(write=False)
    counts.setflags(write=False)
    return ranks, counts


def _level_ranks(elements: np.ndarray, positions: np.ndarray, rank_dtype, step_dtype) -> np.ndarray:
    """The ``(C(k, j), |F|)`` colex ranks of the j-subsets of the rows of ``elements``, position-major, so
    that each gather of the binomials copies whole rows.  Where e < i, e - i wraps in ``uint32``, but there
    C(e, i) is already 0."""
    columns = np.ascontiguousarray(elements.T)  # row q: the q-th element of every member
    binomials = columns.astype(step_dtype)  # C(e, 1) = e
    ranks = binomials[positions[:, 0]].astype(rank_dtype, copy=False)
    for i in range(1, positions.shape[1]):
        binomials *= np.subtract(columns, i, dtype=step_dtype)
        binomials //= i + 1
        ranks += binomials[positions[:, i]].astype(rank_dtype, copy=False)
    return ranks


@lru_cache(maxsize=64)
def _position_combinations(k: int, j: int) -> np.ndarray:
    """Read-only ``(C(k, j), j)`` table of the j-subsets of positions 0..k-1."""
    out = np.array(list(combinations(range(k), j)), dtype=np.intp).reshape(-1, j)
    out.setflags(write=False)
    return out


def rank_to_elements(rank: int, j: int) -> tuple[int, ...]:
    """The ascending elements of the j-set whose colex rank is ``rank``.

    From the top down, each element is the largest e with C(e, i) within
    what is left of the rank, found by doubling then bisection, so the cost
    grows with log n rather than n.
    """
    rank, out = int(rank), []
    for i in range(j, 0, -1):
        high = i
        while math.comb(high, i) <= rank:
            high *= 2
        e = bisect.bisect_right(range(high), rank, key=lambda x: math.comb(x, i)) - 1
        rank -= math.comb(e, i)
        out.append(e)
    return tuple(reversed(out))


def spread_witness(family: SetFamily, r: float, worst: bool = False) -> SpreadReport:
    """Certify the family r-spread or exhibit a violating set.

    The default violation is the first in (|T|, mask-value) order, and only
    the levels up to it are counted; with ``worst=True`` it is the one
    maximizing count / r^(k-|T|) instead (the first such in that order).
    The comparison is exact integer count against float threshold, no
    tolerance; a threshold past the float range saturates to infinity.  Sets
    of full size k never violate: distinct members give count 1 <= r^0.
    """
    if len(family) == 0:
        raise ValueError("spread_witness requires a non-empty family")
    if not (r > 0 and math.isfinite(r)):
        raise ValueError(f"r must be positive and finite, got {r}")
    k = family.k
    best: Optional[SpreadViolation] = None
    best_ratio = 1.0
    for j in range(1, k):
        ranks, counts = level_counts(family, j)
        try:
            threshold = r ** (k - j)
        except OverflowError:  # past the float range: no count can exceed it
            threshold = math.inf
        if worst:
            i = int(np.argmax(counts))
            count = int(counts[i])
            if count > threshold and count / threshold > best_ratio:
                best_ratio = count / threshold
                best = SpreadViolation(rank_to_elements(ranks[i], j), count)
            continue
        over = np.flatnonzero(counts > threshold)
        if over.size:
            i = int(over[0])
            violation = SpreadViolation(rank_to_elements(ranks[i], j), int(counts[i]))
            return SpreadReport(r=r, violation=violation)
    return SpreadReport(r=r, violation=best)


def spreadness(family: SetFamily) -> float:
    """The smallest r for which the family is r-spread.

    Computed as max over non-empty T with |T| < k of count(T)^(1/(k-|T|)),
    that is over the levels j < k of the root of the level's largest count.
    Sets T of full size k only require count <= 1, which distinct members
    guarantee, so they never contribute; a 1-uniform family is already
    1-spread.
    """
    if len(family) == 0:
        raise ValueError("spreadness requires a non-empty family")
    k = family.k
    best = 1.0
    for j in range(1, k):
        _, counts = level_counts(family, j)
        best = max(best, _count_root(int(counts.max()), k - j))
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
