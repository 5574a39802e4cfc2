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

Candidate sets are Python-int bitsets: bit r is the k-set of colex rank r,
the r-th in ascending mask order.  A node's candidates are the bits of one
table per number of elements used, above the node's last member; each
table, and the ranks up to the span it needs, is built once per search.  A
node whose members F span [0, u) hands its children its verdicts on table(u),
and every child candidate c gets the same rule.  Its twin keeps c's
elements below u and moves the rest down to u, u+1, ...  The child keeps c
exactly when F + twin(c) is sunflower-free (the node accepted the twin) and
no sunflower has petals m, the newest member, and c.  A candidate of
table(u) is its own twin; one through an element m introduced has its twin
in table(u) above every member of F.  Proof: a sunflower of F + m + c
through c either has m as a petal, which the pair test sees, or lies in
F + c; no member of F holds an element of c at or above u, so relabelling
those elements maps it one-to-one onto a sunflower of F + twin(c) through
twin(c).

A search with ``ground_cap`` n also bounds what a subtree can add.  Each
element's link {S - e : e in S} in a sunflower-free family is a
sunflower-free (k-1)-family on the other n - 1 elements (a sunflower there
plus e is one in the family), so every element has degree at most
D = _size_bound(p, k-1, n-1).  Members come in ascending mask order, so
every later member of a node's subtree holds its own top element, which is
at or above the top element t of the node's newest member, and spends one
unit of that element's slack D - deg.  The subtree's families therefore
exceed the node's size by at most room = sum over e >= t of (D - deg(e)),
and by at most the node's candidate count once its members span all n
elements, since no later member can then introduce one.  A node whose size
plus room does not exceed the best size found so far is counted, but its
subtree is not entered: it holds no strictly larger family, so the maximum,
the witness (the first family of that size found) and exhaustiveness stay
what the full canonical tree gives; only the node count drops.  The slack
room comes first and needs no pair test; a node's candidates are tested
only if it passes, and the candidate cap then applies to the ones kept.
Siblings ascend, so their slack room never grows: once one fails the
slack test, it and every later sibling are counted in one step.

The same bound one level up, _size_bound(p, k, n), holds every
sunflower-free family within the cap, so once the best family reaches it
no larger one exists and the search returns at once: the maximum is proven,
and the witness is still the first family of that size.  Without a cap,
elements beyond the span are unlimited, room is unbounded, and the search
enters every node.  There is no graph-canonization style isomorph
rejection.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Optional, Sequence

from .bitset import elements_of
from .families import SetFamily, check_budget, find_disjoint_sets, is_sunflower


@dataclass(frozen=True)
class SunflowerFreeSearch:
    """Largest sunflower-free family found, with search accounting."""

    p: int
    k: int
    max_size: int
    witness: SetFamily
    exhaustive: bool
    nodes: int
    nodes_by_depth: tuple[int, ...]  # index: family size at the node; sums to nodes


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


def _twin(candidate: int, used: int, k: int) -> int:
    """``candidate`` with its elements at or above ``used`` moved down to
    used, used+1, ..."""
    old = candidate & ((1 << used) - 1)
    return old | ((1 << (k - old.bit_count())) - 1) << used


def _colex_masks(k: int, start: int, stop: int) -> list[int]:
    """The masks of the k-sets with top element in [start, stop), ascending:
    from start 0, the k-sets in colex rank order."""
    out = []
    mask = 1 << max(start, k - 1) | (1 << (k - 1)) - 1  # the least of them
    while not mask >> stop:
        out.append(mask)
        # the next k-set: the lowest run of ones carries into the bit above it, its other ones move to bit 0
        low = mask & -mask
        mask = (mask + low) | ((mask + low ^ mask) >> 2) // low
    return out


def _closes_sunflower(members: list[int], newest: int, candidate: int, p: int) -> bool:
    """Is there a p-petal sunflower with petals ``newest`` and ``candidate``
    and its other petals in ``members``?

    Its core is X = newest & candidate; a further petal f meets both in
    exactly X, that is f & (newest | candidate) == X, and the further
    petals' X-stripped remainders are pairwise disjoint.  One further petal
    (p = 3) needs no disjointness test.  Every further petal holds X, so two
    of them (p = 4) qualify together exactly when their intersection is X.
    """
    if p == 2:
        return True
    core = newest & candidate
    span = newest | candidate
    if p > 4:
        petals = [f & ~core for f in members if f & span == core]
        return len(petals) >= p - 2 and find_disjoint_sets(petals, p - 2) is not None
    petals = []
    for f in members:
        if f & span == core:
            if p == 3:
                return True
            for g in petals:
                if f & g == core:
                    return True
            petals.append(f)
    return False


def _add_at_elements(values: list[int], mask: int, amount: int) -> None:
    """Add ``amount`` to values[e] for every element e of ``mask``."""
    while mask:
        low = mask & -mask
        values[low.bit_length() - 1] += amount
        mask ^= low


def _size_bound(p: int, k: int, n: int) -> int:
    """An upper bound on a p-sunflower-free k-family on n elements.

    The least of C(n, k), the Erdos-Rado bound (p-1)^k k!, and
    floor(n * _size_bound(p, k-1, n-1) / k): each element's link is a
    sunflower-free (k-1)-family on the other n-1 elements, and the degrees
    sum to k times the family size.
    """
    if k == 0:
        return 1
    return min(math.comb(n, k), (p - 1) ** k * math.factorial(k), n * _size_bound(p, k - 1, n - 1) // k)


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
    families spanning at most that many elements, and then skips the
    subtree of every node that the degree bound shows cannot beat the best
    family found so far, and stops once the best family reaches the size
    bound for the cap.  ``exhaustive`` means the maximum is proven.
    ``nodes`` counts the families visited, skipped subtrees' roots
    included, and ``nodes_by_depth`` splits them by family size.
    ``max_nodes`` bounds that count; a search that needs more stops there
    and returns its best-so-far with exhaustive=False, the same on every
    machine.
    """
    p = operator.index(p)
    k = operator.index(k)
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ground_cap is not None:
        ground_cap = operator.index(ground_cap)
        if ground_cap < k:
            raise ValueError(f"ground_cap {ground_cap} cannot hold a single {k}-set")
    if max_nodes is not None:
        check_budget("max_nodes", max_nodes)
    budget = math.inf if max_nodes is None else max_nodes
    best_members: tuple[int, ...] = ()
    best_ground = k
    nodes = 0
    by_depth: list[int] = []
    exhaustive = True
    # slack[e]: how many more members may hold element e; every element's
    # link is a sunflower-free (k-1)-family on the other ground_cap - 1
    slack = [_size_bound(p, k - 1, ground_cap - 1)] * ground_cap if ground_cap is not None else []
    # no sunflower-free family within the cap is larger
    ceiling = math.inf if ground_cap is None else _size_bound(p, k, ground_cap)

    masks: list[int] = []  # masks[r]: the k-set of colex rank r, so bit order is mask order
    tables: dict[int, int] = {}
    fresh_tables: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def table(used: int) -> int:
        """The bitset of every candidate of a node whose members span ``used``
        elements; a node's own candidates are the bits above its last member."""
        if used not in tables:
            limit = used + k if ground_cap is None else min(ground_cap, used + k)
            masks.extend(_colex_masks(k, masks[-1].bit_length() if masks else 0, limit))
            # a candidate is its own twin; the masks below limit are the first C(limit, k)
            tables[used] = sum(1 << r for r, c in enumerate(masks[: math.comb(limit, k)]) if _twin(c, used, k) == c)
        return tables[used]

    def fresh_table(used: int, child_used: int) -> list[tuple[int, int]]:
        """(twin bit, candidate bit) per candidate at ``child_used`` elements but
        not at ``used``, ascending: those through an element newly introduced."""
        if (used, child_used) not in fresh_tables:
            fresh = elements_of(table(child_used) & ~table(used))
            fresh_tables[used, child_used] = [(1 << masks.index(_twin(masks[r], used, k)), 1 << r) for r in fresh]
        return fresh_tables[used, child_used]

    def extend(members: list[int], used: int, accepted: int) -> None:
        """Count and visit the children of a counted node; ``accepted``: the
        bitset of the node's candidates c with members + c sunflower-free."""
        nonlocal nodes, exhaustive, best_members, best_ground
        size = len(members) + 1
        room_from = list(accumulate(reversed(slack)))[::-1]  # room_from[e] = sum(slack[e:])
        rest = accepted
        while rest:
            low = rest & -rest
            rest ^= low
            if nodes >= budget:
                exhaustive = False
                return
            nodes += 1
            if size == len(by_depth):
                by_depth.append(0)
            by_depth[size] += 1
            mask = masks[low.bit_length() - 1]
            top = mask.bit_length()
            child_used = top if top > used else used
            if size > len(best_members):
                best_members = (*members, mask)
                best_ground = max(child_used, k)
                if size == ceiling:  # no larger family exists
                    return
            if ground_cap is None:
                room = math.inf
            else:
                # every later member holds its top element at or above mask's,
                # which mask itself spends one unit of
                room = room_from[top - 1] - 1
                if size + room <= len(best_members):
                    # so does every later sibling: count them all, within the budget
                    counted = min(rest.bit_count(), budget - nodes)
                    nodes += counted
                    by_depth[size] += counted
                    exhaustive = exhaustive and counted == rest.bit_count()
                    return
            later = rest
            if child_used > used:
                for twin, candidate in fresh_table(used, child_used):
                    if candidate > low and twin & accepted:
                        later |= candidate
            kept = 0
            while later:
                bit = later & -later
                later ^= bit
                if not _closes_sunflower(members, mask, masks[bit.bit_length() - 1], p):
                    kept |= bit
            if not kept:
                continue  # a leaf
            if child_used == ground_cap:  # no element left to introduce
                room = min(room, kept.bit_count())
            if size + room <= len(best_members):
                continue
            members.append(mask)
            if ground_cap is None:
                extend(members, child_used, kept)
            else:
                _add_at_elements(slack, mask, -1)
                extend(members, child_used, kept)
                _add_at_elements(slack, mask, 1)
            members.pop()
            if len(best_members) == ceiling:
                return

    if budget > 0:
        nodes += 1  # the empty family
        by_depth.append(1)
        extend([], 0, table(0))  # a single set is sunflower-free
    else:
        exhaustive = False
    witness = SetFamily(best_ground, k, best_members)
    return SunflowerFreeSearch(
        p=p,
        k=k,
        max_size=len(best_members),
        witness=witness,
        exhaustive=exhaustive,
        nodes=nodes,
        nodes_by_depth=tuple(by_depth),
    )


def sun_value(p: int, k: int, max_nodes: Optional[int] = None) -> SunValue:
    """Exact sun_value(p, k) when exhaustive, else [found+1, classical upper]."""
    search = max_sunflower_free(p, k, max_nodes=max_nodes)
    upper = erdos_rado_upper_bound(p, k)
    lower = search.max_size + 1
    exact = lower if search.exhaustive else None
    return SunValue(
        p=p,
        k=k,
        lower=lower,
        upper=exact if exact is not None else upper,
        exact=exact,
        search=search,
    )
