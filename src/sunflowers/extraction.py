"""Sunflower extraction by the spread/link loop.

The induction on k, run as a loop: a family that is r-spread at the
threshold r(p, k) goes to a randomized partition search for p disjoint
petals; otherwise some set T sits in more than r^(k-|T|) members, T joins
the core, and the loop goes on with those members, T stripped.

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
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from .bitset import elements_of, mask_from_elements
from . import probability
from .families import SetFamily, Sunflower, check_budget, find_disjoint_sets, is_sunflower, link
from .rng import DEFAULT_SEED, STREAM_GENERALIZED, STREAM_SPREAD_SEARCH, check_seed
from .spread import level_counts, rank_to_elements, spread_witness


def _check_C(C: float) -> None:
    if not (C >= 1 and math.isfinite(C)):
        raise ValueError(f"C must be finite and >= 1, got {C}")


@dataclass(frozen=True)
class ExtractionParams:
    """Knobs for extract_sunflower.

    The spread threshold r_threshold(p, k, C) is recomputed from each link's k
    (the provable constant is not numerically pinned anywhere, so 4 is a
    default, not a truth).  The partition search gets 64*p trials.  The
    exhaustive fallback runs iff fallback_bruteforce_cap, its node budget, is
    positive.
    """

    p: int
    C: float = 4.0
    seed: int = DEFAULT_SEED
    fallback_bruteforce_cap: int = 10**6

    def __post_init__(self):
        object.__setattr__(self, "p", operator.index(self.p))
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        _check_C(self.C)
        object.__setattr__(self, "seed", check_seed(self.seed))
        check_budget("fallback_bruteforce_cap", self.fallback_bruteforce_cap)

    @property
    def partition_trials(self) -> int:
        return 64 * self.p


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


def r_threshold(p: int, k: int, C: float = ExtractionParams.C) -> float:
    """Spread threshold for the extraction loop: C*p*ln(k) for k >= 2, p at k = 1.

    A p past the float range is refused.  C*p alone can pass the float range
    while C*p*ln(2) does not, so an infinite product is regrouped before it
    is refused, by p if p*ln(k) alone is infinite and else by C.
    """
    p, k = operator.index(p), operator.index(k)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_C(C)
    try:
        p_float = float(p)
    except OverflowError:
        raise ValueError(
            f"p must be within the float range for a spread threshold C*p*ln(k), got a {p.bit_length()}-bit p"
        ) from None
    if k == 1:
        return p_float
    r = C * p * math.log(k)
    if math.isinf(r):
        p_ln_k = p * math.log(k)
        if math.isinf(p_ln_k):
            raise ValueError(f"p must be small enough for a finite p*ln(k), got a {p.bit_length()}-bit p at k={k}")
        r = C * p_ln_k
        if math.isinf(r):
            raise ValueError(
                f"C must be small enough for a finite spread threshold C*p*ln(k), got C={C} at p*ln(k)={p_ln_k:g}"
            )
    return r


def _spread_case_search(
    family: SetFamily, classes: int, need: int, trials: int, seed: int, stream: int
) -> tuple[Optional[list[int]], int]:
    """Random ``classes``-way partitions of the ground set until at least
    ``need`` classes each contain a member.

    Returns (petals, trials_used): petals are the smallest member of every
    hit class of the first such trial, in class order, so they are pairwise
    disjoint by construction; None when no trial succeeds.  A tile of
    :func:`.probability._class_ids` is tested at once: the class ids of each
    member's elements are gathered from the family's element matrix, a member
    lies in a class when all its ids are equal, and the hit (trial, class)
    pairs, sorted, give each trial's count of distinct classes.  The tiles
    stop at the first success, and the first succeeding trial wins, whatever
    the tile size.
    """
    if trials < 1:
        return None, 0
    positions = family.elements().T  # row q: the q-th smallest element of every member
    if positions.size == 0:  # no member, or only the empty one, which lies in every class
        petals = [0] * (len(family) * classes)
        return (petals, 1) if len(petals) >= need else (None, trials)
    if len(family) < need:  # a non-empty member lies in one class, so a trial hits at most |F| classes
        return None, trials
    for start, class_ids in probability._class_ids(seed, stream, trials, family.ground_size, classes, positions.size):
        ids = np.take(class_ids, positions, axis=1)  # (trials, k, |F|)
        hit_pairs = np.flatnonzero((ids[:, 1:] == ids[:, :1]).all(axis=1))  # trial * |F| + member
        trial, member = np.divmod(hit_pairs, positions.shape[1])
        cls = ids[trial, 0, member]
        order = np.lexsort((cls, trial))  # stable: members stay ascending within a (trial, class)
        trial, member, cls = trial[order], member[order], cls[order]
        first = np.ones(len(order), dtype=bool)  # the smallest hit member of its (trial, class)
        first[1:] = (trial[1:] != trial[:-1]) | (cls[1:] != cls[:-1])
        won = np.flatnonzero(np.bincount(trial[first], minlength=len(ids)) >= need)
        if won.size:
            picks = member[first & (trial == won[0])]
            return list(map(mask_from_elements, family.elements()[picks].tolist())), start + int(won[0]) + 1
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

    A p-petal core is empty or a set of 1..k-1 elements in at least p members,
    so the candidates are the empty set, then those sets read lazily from the
    cached level counts (:func:`~sunflowers.spread.level_counts`), ascending by
    (size, mask).  Members containing a core X form a sunflower with core X iff
    their X-stripped remainders are pairwise disjoint, a disjoint-sets search.
    ``cap`` bounds the search nodes (None: no bound); every candidate spends at
    least one, so the work grows with the cap, not with |F|^2.  When spent: None.
    """
    if operator.index(p) < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if cap is not None:
        check_budget("cap", cap)
    if len(family) < p:
        return None
    sets = family.sets
    if p == 1:
        return Sunflower(core=sets[0], petals=(sets[0],))
    budget = cap

    def spend() -> bool:
        nonlocal budget
        if budget == 0:
            return False
        budget -= 1
        return True

    for core in _candidate_cores(family, p):
        stripped = [m & ~core for m in sets if m & core == core]
        chosen = find_disjoint_sets(stripped, p, None if cap is None else spend)
        if chosen is not None:
            return Sunflower(core=core, petals=tuple(s | core for s in chosen))
        if budget == 0:
            return None
    return None


def _candidate_cores(family: SetFamily, p: int) -> Iterator[int]:
    """The empty set, then each j-set (0 < j < k) in >= p members, by (j, mask)."""
    yield 0
    for j in range(1, family.k):
        ranks, counts = level_counts(family, j)
        for rank in ranks[counts >= p]:
            yield mask_from_elements(rank_to_elements(rank, j))


def extract_sunflower(family: SetFamily, params: ExtractionParams) -> ExtractionTrace:
    """Find a p-petal sunflower by the spread/link loop.

    Each pass looks at the current family, at r = r_threshold(p, k, C) for
    its k.  If it is not r-spread, the first violating set T in (|T|, mask)
    order is recorded as a :class:`LinkCase`, added to the core, and the loop
    goes on with the link of T.  Otherwise the partition search runs its
    64*p trials on stream ``STREAM_SPREAD_SEARCH + len(steps)``, the number of
    link steps before it, then the exhaustive fallback (iff its cap is
    positive), and the loop ends.  It also ends at an empty family, at k = 0,
    or at k = 1, where any p members are disjoint petals.  The accumulated
    core is added to the found core and every petal once, at the end.

    Every returned sunflower is verified before the trace is built: exactly
    p petals, all members of the input family, pairwise intersections equal
    to the core.  A None result means the links, the randomized search and
    the fallback all came up empty within their budgets.
    """
    p = params.p
    steps: list[Step] = []
    fallback_used = False
    fam, core, flower = family, 0, None
    while len(fam) and fam.k:
        if fam.k == 1:
            if len(fam) >= p:
                flower = Sunflower(core=0, petals=tuple(map(mask_from_elements, fam.elements()[:p].tolist())))
            break
        r = r_threshold(p, fam.k, params.C)
        violation = spread_witness(fam, r).violation
        if violation is not None:
            steps.append(LinkCase(t=violation.t, count=violation.count))
            core |= violation.t
            fam = link(fam, violation.t)
            continue
        petals, used = _spread_case_search(
            fam, 2 * p, p, params.partition_trials, params.seed, STREAM_SPREAD_SEARCH + len(steps)
        )
        steps.append(SpreadCase(r=r, trials_used=used, found_disjoint=petals is not None))
        if petals is not None:
            flower = Sunflower(core=0, petals=tuple(petals[:p]))
        elif params.fallback_bruteforce_cap > 0:
            fallback_used = True
            flower = brute_force_sunflower(fam, p, cap=params.fallback_bruteforce_cap)
        break
    if flower is not None:
        flower = Sunflower(core=flower.core | core, petals=tuple(petal | core for petal in flower.petals))
        _verify_result(family, flower, p)
    return ExtractionTrace(p=p, seed=params.seed, steps=tuple(steps), sunflower=flower, fallback_used=fallback_used)


def _verify_result(family: SetFamily, flower: Sunflower, p: int) -> None:
    if len(flower.petals) != p:
        raise RuntimeError(f"extraction produced {len(flower.petals)} petals, wanted {p}")
    for petal in flower.petals:
        if petal not in family:
            raise RuntimeError(f"petal {petal:#x} is not a member of the input family")
    checked = is_sunflower(flower.petals)
    if checked is None or checked.core != flower.core:
        raise RuntimeError("extraction produced a non-sunflower")
