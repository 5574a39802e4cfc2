"""Exact small sunflower numbers by exhaustive canonical search.

sun_value(p, k) is the least s such that every family of s distinct k-sets
contains a p-petal sunflower; equivalently one plus the size of the largest
sunflower-free family.  The search generates families as ascending mask
sequences in which a new member may introduce unused ground elements only as
the next consecutive indices.  Every family can be relabeled into such a
sequence (order members by the smallest mask they can still achieve; an
element's eventual label is never smaller than the next-consecutive label it
would get on introduction), so the pruned tree still sees a representative
of every isomorphism class and the maximum found is the true maximum.

Symmetry reduction stops there deliberately: no graph-canonization style
isomorph rejection, which keeps the search simple and obviously sound for
the tiny parameter range this is meant for (p <= 4, k <= 3).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .bitset import mask_from_elements
from .families import SetFamily, find_disjoint_sets, is_sunflower


@dataclass(frozen=True)
class SunflowerFreeSearch:
    """Largest sunflower-free family found, with search accounting."""

    p: int
    k: int
    max_size: int
    witness: SetFamily
    exhaustive: bool
    nodes: int
    seconds: float


@dataclass(frozen=True)
class SunValue:
    """Exact value when the search was exhaustive, else a bracket."""

    p: int
    k: int
    lower: int  # sun_value > max found, so >= lower
    upper: int
    exact: Optional[int]
    search: SunflowerFreeSearch


def erdos_rado_upper_bound(p: int, k: int) -> int:
    return (p - 1) ** k * math.factorial(k) + 1


def contains_sunflower(sets: Sequence[int], p: int) -> bool:
    """Exhaustive scan over all p-subsets; independent of the search pruning."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return any(is_sunflower(combo) is not None for combo in combinations(sets, p))


def verify_sunflower_free(family: SetFamily, p: int) -> bool:
    return not contains_sunflower(family.sets, p)


def _extends_sunflower_free(members: list[int], candidate: int, p: int) -> bool:
    """Would members + candidate still be p-petal-sunflower-free?

    Only sunflowers through the candidate can appear (the rest were excluded
    inductively).  Group members by their intersection with the candidate:
    petals sharing core X are exactly X-containing members whose X-stripped
    remainders are pairwise disjoint.
    """
    by_core: dict[int, list[int]] = {}
    for m in members:
        by_core.setdefault(m & candidate, []).append(m)
    for core, group in by_core.items():
        if len(group) < p - 1:
            continue
        if find_disjoint_sets([m & ~core for m in group], p - 1) is not None:
            return False
    return True


def max_sunflower_free(
    p: int,
    k: int,
    max_nodes: Optional[int] = None,
    ground_cap: Optional[int] = None,
) -> SunflowerFreeSearch:
    """Backtracking search for the largest p-petal-sunflower-free k-family.

    Terminates without any cap: a sunflower-free family never holds p
    pairwise-disjoint members, which bounds its size, and each member adds
    at most k ground elements.  ``ground_cap`` restricts the search to
    families spanning at most that many elements.  ``max_nodes`` bounds the
    search nodes; a search that needs more stops there and returns its
    best-so-far with exhaustive=False, the same on every machine.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ground_cap is not None and ground_cap < k:
        raise ValueError(f"ground_cap {ground_cap} cannot hold a single {k}-set")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
    start_time = time.perf_counter()
    best_members: tuple[int, ...] = ()
    best_ground = k
    nodes = 0
    exhaustive = True

    def candidates(last_mask: int, used: int) -> list[int]:
        limit = used + k if ground_cap is None else min(ground_cap, used + k)
        out = []
        for fresh in range(0, k + 1):
            if used + fresh > limit:
                break
            fresh_mask = ((1 << fresh) - 1) << used
            for old in combinations(range(used), k - fresh):
                mask = fresh_mask | mask_from_elements(old)
                if mask > last_mask:
                    out.append(mask)
        out.sort()
        return out

    def extend(members: list[int], last_mask: int, used: int) -> None:
        nonlocal nodes, exhaustive, best_members, best_ground
        if max_nodes is not None and nodes >= max_nodes:
            exhaustive = False
            return
        nodes += 1
        if len(members) > len(best_members):
            best_members = tuple(members)
            best_ground = max(used, k)
        for mask in candidates(last_mask, used):
            if not exhaustive:
                return
            if _extends_sunflower_free(members, mask, p):
                members.append(mask)
                extend(members, mask, max(used, mask.bit_length()))
                members.pop()

    extend([], 0, 0)
    witness = SetFamily(best_ground, k, best_members)
    return SunflowerFreeSearch(
        p=p,
        k=k,
        max_size=len(best_members),
        witness=witness,
        exhaustive=exhaustive,
        nodes=nodes,
        seconds=time.perf_counter() - start_time,
    )


def sun_value(
    p: int,
    k: int,
    max_nodes: Optional[int] = None,
    ground_cap: Optional[int] = None,
) -> SunValue:
    """Exact sun_value(p, k) when exhaustive, else [found+1, classical upper]."""
    search = max_sunflower_free(p, k, max_nodes=max_nodes, ground_cap=ground_cap)
    upper = erdos_rado_upper_bound(p, k)
    lower = search.max_size + 1
    exact = lower if search.exhaustive and ground_cap is None else None
    return SunValue(
        p=p,
        k=k,
        lower=lower,
        upper=exact if exact is not None else upper,
        exact=exact,
        search=search,
    )
