"""Recursive sunflower extraction.

The induction on k: a family that is r-spread at the threshold r(p, k) goes
to a randomized partition search for p disjoint petals; otherwise some set T
sits in more than r^(k-|T|) members, and the search recurses on those members
with T stripped, re-attaching T to every petal afterwards.

Failure is a value carrying the full trace, never an exception: the
guarantee that the randomized step succeeds needs families of size r^k,
which is astronomically beyond desk scale, so small instances routinely
fall through to the exhaustive fallback or fail honestly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .bitset import elements_of
from .families import SetFamily, Sunflower, find_disjoint_sets, is_sunflower, link
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
        if self.C < 1:
            raise ValueError(f"C must be >= 1, got {self.C}")
        if self.fallback_bruteforce_cap < 0:
            raise ValueError(f"fallback_bruteforce_cap must be >= 0, got {self.fallback_bruteforce_cap}")
        if self.r_override is not None and self.r_override < 1:
            raise ValueError(f"r_override must be >= 1, got {self.r_override}")

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def r_threshold(p: int, k: int, C: float = 4.0) -> float:
    """Spread threshold for the recursion: C*p*ln(k) for k >= 2, p at k = 1."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not C > 0:
        raise ValueError(f"C must be positive, got {C}")
    return float(p) if k == 1 else C * p * math.log(k)


def _harvest(family: SetFamily, uniforms_row: np.ndarray, classes: int, stop: int) -> list[int]:
    """Partition the ground set by ``uniforms_row`` into ``classes`` classes and
    take, class by class, the first member inside each; stops at ``stop``
    members.  Members ascend, so each pick is the class's smallest member."""
    class_masks = [0] * classes
    for element, cls in enumerate((uniforms_row * classes).astype(np.int64).tolist()):
        class_masks[cls] |= 1 << element
    petals = []
    for class_mask in class_masks:
        outside = ~class_mask
        for m in family.sets:
            if m & outside == 0:
                petals.append(m)
                if len(petals) == stop:
                    return petals
                break
    return petals


def _spread_case_search(
    family: SetFamily, p: int, trials: int, seed: int, stream: int
) -> tuple[Optional[list[int]], int]:
    """Random 2p-way partitions until >= p classes each contain a member.

    Returns (petals, trials_used); petals are one member per hit class, so
    they are pairwise disjoint by construction.  Deterministic: the first
    succeeding trial index wins, and each class contributes its smallest
    contained member.
    """
    if len(family) == 0 or trials < 1:
        return None, 0
    uniforms = uniform_block(seed, stream, 0, trials, family.ground_size)
    for trial in range(trials):
        petals = _harvest(family, uniforms[trial], 2 * p, p)
        if len(petals) == p:
            return petals, trial + 1
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
    """Partition into t = floor(1/delta) classes and harvest one member per
    hit class; reports whether more than t*(1-eps) classes were hit."""
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    classes = math.floor(1.0 / delta)
    required = classes * (1.0 - eps)
    if len(family) == 0:
        return PartitionDisjointResult((), classes, 0, required, False)
    uniforms = uniform_block(seed, STREAM_GENERALIZED, 0, 1, family.ground_size)
    petals = _harvest(family, uniforms[0], classes, classes)
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
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be >= 0 or None, got {cap}")
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
            fam, p, params.partition_trials, params.seed, STREAM_SPREAD_SEARCH + depth
        )
        steps.append(SpreadCase(r=r, trials_used=used, found_disjoint=petals is not None))
        if petals is not None:
            return Sunflower(core=0, petals=tuple(petals))
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
