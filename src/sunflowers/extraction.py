"""Recursive sunflower extraction.

The induction on k: a family that is r-spread at the threshold r(p, k) goes
to a randomized partition search for p disjoint petals; otherwise some set T
sits in more than r^(k-|T|) members, and the search recurses on those members
with T stripped, re-attaching T to every petal afterwards.

The spread case and the floor(1/delta)-class step of the probabilistic part
are one search, :func:`_spread_case_search`: split the ground set into
random classes and keep the smallest member of every class that holds one.
The spread case asks for p of 2p classes within its trial budget; the
generalized step takes a single trial as it falls.

Failure is a value carrying the full trace, never an exception: the
guarantee that the randomized step succeeds needs families of size r^k,
which is astronomically beyond desk scale, so small instances routinely
fall through to the exhaustive fallback or fail honestly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bitset import elements_of
from . import probability
from .families import SetFamily, Sunflower, check_budget, find_disjoint_sets, is_sunflower, link
from .rng import DEFAULT_SEED, STREAM_GENERALIZED, STREAM_SPREAD_SEARCH, uniform_block
from .spread import spread_witness


@dataclass(frozen=True)
class ExtractionParams:
    """Knobs for extract_sunflower.

    The spread threshold uses the supplied C (the provable constant is not
    numerically pinned anywhere, so 4 is a default, not a truth); r_override
    pins the threshold directly for experiments.
    """

    p: int
    C: float = 4.0
    max_partition_trials: Optional[int] = None  # defaults to 64*p
    seed: int = DEFAULT_SEED
    fallback_bruteforce_cap: int = 10**6
    r_override: Optional[float] = None
    use_fallback: bool = True

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not (self.C >= 1 and math.isfinite(self.C)):
            raise ValueError(f"C must be finite and >= 1, got {self.C}")
        check_budget("fallback_bruteforce_cap", self.fallback_bruteforce_cap)
        if self.max_partition_trials is not None:
            check_budget("max_partition_trials", self.max_partition_trials)
        if self.r_override is not None and not (self.r_override >= 1 and math.isfinite(self.r_override)):
            raise ValueError(f"r_override must be finite and >= 1, got {self.r_override}")

    @property
    def partition_trials(self) -> int:
        return 64 * self.p if self.max_partition_trials is None else self.max_partition_trials


@dataclass(frozen=True)
class SpreadCase:
    """The family was certified r-spread; the randomized search ran."""

    r: float
    trials_used: int
    found_disjoint: bool


@dataclass(frozen=True)
class LinkCase:
    """A violating set t (contained in ``count`` members) was stripped."""

    t: int
    count: int


Step = Union[SpreadCase, LinkCase]


@dataclass(frozen=True)
class ExtractionTrace:
    p: int
    seed: int
    steps: tuple[Step, ...]
    sunflower: Optional[Sunflower]
    fallback_used: bool = False

    @property
    def succeeded(self) -> bool:
        return self.sunflower is not None

    def to_dict(self) -> dict:
        steps = []
        for s in self.steps:
            if isinstance(s, LinkCase):
                steps.append({"kind": "link", "t": list(elements_of(s.t)), "count": s.count})
            else:
                steps.append(
                    {
                        "kind": "spread",
                        "r": s.r,
                        "trials_used": s.trials_used,
                        "found_disjoint": s.found_disjoint,
                    }
                )
        result = None
        if self.sunflower is not None:
            result = {
                "core": list(elements_of(self.sunflower.core)),
                "petals": [list(elements_of(m)) for m in self.sunflower.petals],
            }
        return {
            "schema_version": 1,
            "p": self.p,
            "seed": self.seed,
            "steps": steps,
            "sunflower": result,
            "fallback_used": self.fallback_used,
        }


def r_threshold(p: int, k: int, C: float = 4.0) -> float:
    """Spread threshold for the recursion: C*p*ln(k) for k >= 2, p at k = 1."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    return float(p) if k == 1 else C * p * math.log(k)


def _spread_case_search(
    family: SetFamily, classes: int, need: int, trials: int, seed: int, stream: int
) -> tuple[Optional[list[int]], int]:
    """Random ``classes``-way partitions of the ground set until at least
    ``need`` classes each contain a member.

    Returns (petals, trials_used): petals are the smallest member of every
    hit class of the first such trial, in class order, so they are pairwise
    disjoint by construction; None when no trial succeeds.  Every trial is
    tested at once: the class ids of each member's elements are gathered
    from the family's element matrix, and a member lies in a class when all
    its ids are equal.  Trials go in tiles of ``_KERNEL_TILE_BYTES`` of
    gathered ids, and the tiles stop at the first one holding a success;
    the first succeeding trial index wins, whatever the tile size.
    """
    if trials < 1:
        return None, 0
    positions = family.elements().T  # row q: the q-th smallest element of every member
    if positions.size == 0:  # no member, or only the empty one, which lies in every class
        petals = list(family.sets) * classes
        return (petals, 1) if len(petals) >= need else (None, trials)
    uniforms = uniform_block(seed, stream, 0, trials, family.ground_size)
    assign = (uniforms * classes).astype(np.min_scalar_type(classes - 1))
    tile = max(1, probability._KERNEL_TILE_BYTES // (assign.itemsize * positions.size))
    for start in range(0, trials, tile):
        ids = np.take(assign[start : start + tile], positions, axis=1)  # (trials, k, |F|)
        trial, member = np.nonzero((ids[:, 1:] == ids[:, :1]).all(axis=1))
        hit = np.zeros((len(ids), classes), dtype=bool)
        hit[trial, ids[trial, 0, member]] = True
        won = np.flatnonzero(np.count_nonzero(hit, axis=1) >= need)
        if won.size:
            first = int(won[0])
            members = member[trial == first]  # ascending, so unique keeps each class's smallest
            picks = members[np.unique(ids[first, 0, members], return_index=True)[1]]
            return [family.sets[j] for j in picks.tolist()], start + first + 1
    return None, trials


@dataclass(frozen=True)
class PartitionDisjointResult:
    """One floor(1/delta)-way partition: a member per hit class."""

    sets: tuple[int, ...]
    classes: int
    hit_classes: int
    required: float  # the count the threshold asks to exceed: t * (1 - eps)
    threshold_exceeded: bool


def generalized_disjoint_search(
    family: SetFamily, delta: float, eps: float, seed: int = DEFAULT_SEED
) -> PartitionDisjointResult:
    """One trial of the spread-case search with t = floor(1/delta) classes
    and no success bar: the smallest member of every hit class, and whether
    more than t*(1-eps) classes were hit."""
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    classes = math.floor(1.0 / delta)
    required = classes * (1.0 - eps)
    petals, _ = _spread_case_search(family, classes, 0, 1, seed, STREAM_GENERALIZED)
    return PartitionDisjointResult(
        sets=tuple(petals),
        classes=classes,
        hit_classes=len(petals),
        required=required,
        threshold_exceeded=len(petals) > required,
    )


def brute_force_sunflower(family: SetFamily, p: int, cap: Optional[int] = None) -> Optional[Sunflower]:
    """Exhaustive p-petal sunflower search, grouped by candidate cores.

    A sunflower's core is the intersection of any two of its petals, so the
    candidate cores are the empty set and all pairwise member intersections.
    For a fixed core X, members containing X form a sunflower with core X
    iff their X-stripped remainders are pairwise disjoint, so each group
    reduces to a disjoint-sets search.  ``cap`` bounds the number of search
    nodes (None: no bound); when exhausted the search gives up (returns None).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if cap is not None:
        check_budget("cap", cap)
    sets = family.sets
    if len(sets) < p:
        return None
    if p == 1:
        return Sunflower(core=sets[0], petals=(sets[0],))
    cores = {sets[i] & sets[j] for i in range(len(sets)) for j in range(i + 1, len(sets))}
    budget = cap

    def spend() -> bool:
        nonlocal budget
        if budget == 0:
            return False
        budget -= 1
        return True

    for core in sorted(cores, key=lambda m: (m.bit_count(), m)):
        stripped = [m & ~core for m in sets if m & core == core]
        chosen = find_disjoint_sets(stripped, p, None if cap is None else spend)
        if chosen is not None:
            return Sunflower(core=core, petals=tuple(s | core for s in chosen))
        if budget == 0:
            return None
    return None


def extract_sunflower(family: SetFamily, params: ExtractionParams) -> ExtractionTrace:
    """Find a p-petal sunflower by the spread/link recursion.

    Every returned sunflower is verified before the trace is built: exactly
    p petals, all members of the input family, pairwise intersections equal
    to the core.  A None result means the recursion, the randomized search,
    and (when enabled) the exhaustive fallback all came up empty within
    their budgets.
    """
    p = params.p
    steps: list[Step] = []
    fallback_used = [False]

    def recurse(fam: SetFamily, depth: int) -> Optional[Sunflower]:
        if len(fam) == 0 or fam.k == 0:
            return None
        if fam.k == 1:
            if len(fam) >= p:
                return Sunflower(core=0, petals=fam.sets[:p])
            return None
        r = params.r_override if params.r_override is not None else r_threshold(p, fam.k, params.C)
        report = spread_witness(fam, r)
        if report.violation is not None:
            v = report.violation
            steps.append(LinkCase(t=v.t, count=v.count))
            inner = recurse(link(fam, v.t), depth + 1)
            if inner is None:
                return None
            return Sunflower(
                core=inner.core | v.t, petals=tuple(petal | v.t for petal in inner.petals)
            )
        petals, used = _spread_case_search(
            fam, 2 * p, p, params.partition_trials, params.seed, STREAM_SPREAD_SEARCH + depth
        )
        steps.append(SpreadCase(r=r, trials_used=used, found_disjoint=petals is not None))
        if petals is not None:
            return Sunflower(core=0, petals=tuple(petals[:p]))
        if params.use_fallback:
            fallback_used[0] = True
            return brute_force_sunflower(fam, p, cap=params.fallback_bruteforce_cap)
        return None

    flower = recurse(family, 0)
    if flower is not None:
        _verify_result(family, flower, p)
    return ExtractionTrace(
        p=p,
        seed=params.seed,
        steps=tuple(steps),
        sunflower=flower,
        fallback_used=fallback_used[0],
    )


def _verify_result(family: SetFamily, flower: Sunflower, p: int) -> None:
    if len(flower.petals) != p:
        raise RuntimeError(f"extraction produced {len(flower.petals)} petals, wanted {p}")
    for petal in flower.petals:
        if petal not in family:
            raise RuntimeError(f"petal {petal:#x} is not a member of the input family")
    checked = is_sunflower(flower.petals)
    if checked is None or checked.core != flower.core:
        raise RuntimeError("extraction produced a non-sunflower")
