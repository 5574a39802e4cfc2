import math
import random
from itertools import combinations, permutations, zip_longest

import numpy as np
import pytest

from sunflowers.bitset import mask_from_elements
from sunflowers.constructions import erdos_rado_family
from sunflowers.families import SetFamily, find_disjoint_sets, is_sunflower
from sunflowers.spread import rank_to_elements
from sunflowers.sunvalues import (
    _closes_sunflower,
    _colex_masks,
    _size_bound,
    _twin,
    contains_sunflower,
    erdos_rado_upper_bound,
    max_sunflower_free,
    sun_value,
    verify_sunflower_free,
)


def m(*elements):
    return mask_from_elements(elements)


TWO_TRIANGLES = [m(0, 1), m(1, 2), m(0, 2), m(3, 4), m(4, 5), m(3, 5)]


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


def _naive_max_sunflower_free(p, k, ground):
    """Oracle: no symmetry reduction at all, fixed ground set."""
    candidates = sorted(m(*c) for c in combinations(range(ground), k))
    best = 0

    def extend(members, start):
        nonlocal best
        best = max(best, len(members))
        for i in range(start, len(candidates)):
            cand = candidates[i]
            members.append(cand)
            if not contains_sunflower(members, p):
                extend(members, i + 1)
            members.pop()

    extend([], 0)
    return best


def _rebuilding_search(p, k, max_nodes=None, ground_cap=None, twins=False):
    """Oracle: the canonical search with its candidate list rebuilt at every
    node and the full extension test on every candidate.

    With ``twins``, every node also recomputes which adjacent used elements
    e, e+1 lie in exactly the same members, and a sunflower-free candidate
    that holds e+1 without e is counted as a node but not entered.
    """
    best, best_ground, nodes, exhaustive, by_depth = (), k, 0, True, []

    def candidates(last_mask, used):
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
        return sorted(out)

    def count(members, used):
        """Count the node members spanning ``used`` elements; False once the budget is spent."""
        nonlocal best, best_ground, nodes, exhaustive
        if max_nodes is not None and nodes >= max_nodes:
            exhaustive = False
            return False
        nodes += 1
        if len(members) == len(by_depth):
            by_depth.append(0)
        by_depth[len(members)] += 1
        if len(members) > len(best):
            best, best_ground = tuple(members), max(used, k)
        return True

    def twin_pairs(members, used):
        return [e for e in range(used - 1) if all((f >> e & 1) == (f >> e + 1 & 1) for f in members)]

    def extend(members, last_mask, used):
        if not count(members, used):
            return
        pairs = twin_pairs(members, used) if twins else []
        for mask in candidates(last_mask, used):
            if not exhaustive:
                return
            if _extends_sunflower_free(members, mask, p):
                members.append(mask)
                if any(mask >> e + 1 & 1 and not mask >> e & 1 for e in pairs):
                    count(members, max(used, mask.bit_length()))
                else:
                    extend(members, mask, max(used, mask.bit_length()))
                members.pop()

    extend([], 0, 0)
    return len(best), nodes, exhaustive, best, best_ground, tuple(by_depth)


def _outcome(search):
    return (search.max_size, search.nodes, search.exhaustive, search.witness.sets, search.witness.ground_size,
            search.nodes_by_depth)


def _assert_matches_oracle(search, oracle):
    """A capped search skips subtrees the degree bound rules out, and every
    search skips the subtrees of twin mirror images, so it may visit fewer
    nodes than the oracle; everything else is identical."""
    size, nodes, exhaustive, sets, ground, _ = oracle
    assert (search.max_size, search.exhaustive, search.witness.sets, search.witness.ground_size) == (
        size, exhaustive, sets, ground)
    assert search.nodes <= nodes
    assert sum(search.nodes_by_depth) == search.nodes


# the benchmark's canonical-search grid points (p, k, ground_cap), cheapest first
SMALL_GRID = [(2, 2, 4), (3, 1, 3), (3, 2, 6), (3, 2, 7), (3, 2, 8), (3, 2, 10),
              (3, 3, 5), (4, 2, 5), (4, 3, 5), (4, 2, 6), (3, 3, 6)]
# the degree bound _size_bound(p, k - 1, ground_cap - 1) on every benchmark grid point
GRID_DEGREE_BOUNDS = {(2, 2, 4): 1, (3, 1, 3): 1, (3, 2, 6): 2, (3, 2, 7): 2, (3, 2, 8): 2, (3, 2, 10): 2,
                      (3, 3, 5): 4, (4, 2, 5): 3, (4, 3, 5): 6, (4, 2, 6): 3, (3, 3, 6): 5,
                      (4, 2, 7): 3, (4, 2, 8): 3, (4, 3, 6): 7}
# small caps on which the oracle takes milliseconds
SWEEP_CAPS = {1: range(1, 7), 2: range(2, 7), 3: range(3, 6), 4: range(4, 7)}


@pytest.mark.parametrize("p,k,cap", SMALL_GRID)
def test_search_matches_rebuilding_search(p, k, cap):
    _assert_matches_oracle(max_sunflower_free(p, k, ground_cap=cap), _rebuilding_search(p, k, ground_cap=cap))


@pytest.mark.parametrize("p,k", [(p, k) for p in range(2, 7) for k in range(1, 5)])
def test_capped_sweep_matches_rebuilding_search(p, k):
    for cap in SWEEP_CAPS[k]:
        oracle = _rebuilding_search(p, k, ground_cap=cap)
        _assert_matches_oracle(max_sunflower_free(p, k, ground_cap=cap), oracle)
        assert _size_bound(p, k, cap) >= oracle[0], cap


@pytest.mark.parametrize("p,k,cap,budgets", [
    (3, 3, None, (200, 800)),
    (4, 2, None, (5000,)),
    (5, 2, None, (3000,)),
])
def test_budgeted_search_matches_rebuilding_search(p, k, cap, budgets):
    # the unbounded search skips no subtree but twin mirror images, so it
    # matches the oracle with the twin check node for node
    for budget in budgets:
        expected = _rebuilding_search(p, k, max_nodes=budget, ground_cap=cap, twins=True)
        assert not expected[2]  # stops mid-tree
        assert _outcome(max_sunflower_free(p, k, max_nodes=budget, ground_cap=cap)) == expected, budget


def test_unbounded_search_matches_the_twin_oracle_node_for_node():
    search = max_sunflower_free(3, 2)
    assert search.exhaustive
    assert _outcome(search) == _rebuilding_search(3, 2, twins=True)
    # the plain canonical tree holds the same maximum and witness in more nodes
    _assert_matches_oracle(search, _rebuilding_search(3, 2))


def test_capped_node_budget_is_deterministic():
    full = max_sunflower_free(4, 2, ground_cap=7)
    assert full.exhaustive
    assert _outcome(max_sunflower_free(4, 2, max_nodes=full.nodes, ground_cap=7)) == _outcome(full)
    short = max_sunflower_free(4, 2, max_nodes=full.nodes - 1, ground_cap=7)
    assert not short.exhaustive and short.nodes == sum(short.nodes_by_depth) == full.nodes - 1
    assert _outcome(max_sunflower_free(4, 2, max_nodes=full.nodes - 1, ground_cap=7)) == _outcome(short)
    assert verify_sunflower_free(short.witness, 4)


def test_larger_grid_points_keep_their_node_counts():
    # the rebuilding search visits 27,236, 70,201 and 163,997 nodes on these
    # points in several seconds; the witnesses are its witnesses
    pinned = {
        (4, 2, 7): (10, 20, (3, 5, 6, 9, 10, 20, 40, 48, 80, 96)),
        (4, 2, 8): (10, 21_048, (3, 5, 6, 9, 10, 20, 24, 48, 96, 160)),
        (4, 3, 6): (14, 952, (7, 11, 13, 19, 21, 26, 28, 38, 41, 42, 44, 49, 50, 52)),
    }
    for (p, k, cap), (size, nodes, sets) in pinned.items():
        search = max_sunflower_free(p, k, ground_cap=cap)
        assert (search.max_size, search.nodes, search.exhaustive, search.witness.sets) == (size, nodes, True, sets)
        assert search.witness.ground_size == cap and sum(search.nodes_by_depth) == nodes
        assert len(search.nodes_by_depth) == size + 1 and search.nodes_by_depth[:2] == (1, 1)
        assert verify_sunflower_free(search.witness, p)


@pytest.mark.parametrize("p,k,cap,by_depth", [
    (4, 2, 6, (1, 1, 1, 1, 1, 3, 9, 15, 4, 1)),
    (4, 2, 7, (1, 1, 1, 1, 1, 1, 2, 3, 5, 3, 1)),
    (3, 3, 6, (1, 1, 1, 3, 11, 42, 81, 54, 13, 1, 1)),
    (4, 3, 6, (1, 1, 1, 1, 2, 11, 72, 160, 188, 215, 137, 78, 52, 32, 1)),
])
def test_every_budget_stops_at_exactly_its_node_count(p, k, cap, by_depth):
    # siblings that fail the slack test are counted together; a budget that
    # ends among them must still count exactly as many nodes as it allows
    full = max_sunflower_free(p, k, ground_cap=cap)
    assert full.nodes_by_depth == by_depth
    previous = max_sunflower_free(p, k, max_nodes=0, ground_cap=cap).nodes_by_depth
    assert previous == ()
    for budget in range(1, full.nodes + 1):
        search = max_sunflower_free(p, k, max_nodes=budget, ground_cap=cap)
        assert search.nodes == sum(search.nodes_by_depth) == budget, budget
        assert search.exhaustive == (budget == full.nodes), budget
        # one more node of budget is one more node at exactly one depth
        steps = [b - a for a, b in zip_longest(previous, search.nodes_by_depth, fillvalue=0)]
        assert sorted(steps) == [0] * (len(steps) - 1) + [1], budget
        previous = search.nodes_by_depth
    assert _outcome(search) == _outcome(full) and search.nodes_by_depth == full.nodes_by_depth


def test_largest_grid_point_keeps_its_nodes_by_depth():
    full = max_sunflower_free(4, 2, ground_cap=8)
    assert full.nodes_by_depth == (1, 1, 3, 10, 49, 249, 868, 4246, 8493, 6086, 1042)
    # the tree ends in siblings counted together: a budget that cuts them
    # leaves the search unfinished
    for budget in range(full.nodes - 6, full.nodes):
        search = max_sunflower_free(4, 2, max_nodes=budget, ground_cap=8)
        assert search.nodes == budget and not search.exhaustive, budget


def test_colex_masks_follow_the_colex_ranks():
    # bit r of a candidate bitset is the k-set of colex rank r
    for k in range(1, 5):
        expected = [mask_from_elements(rank_to_elements(r, k)) for r in range(math.comb(12, k))]
        assert expected == sorted(expected)
        # the search extends its rank table span by span
        for split in range(13):
            assert _colex_masks(k, 0, split) + _colex_masks(k, split, 12) == expected, (k, split)


def test_budgeted_unbounded_searches_keep_their_outcomes():
    # too large for the rebuilding search; the sizes and witnesses were
    # recorded from the list-based candidate search that the bitset tables
    # replaced, the nodes by depth from the search that skips twin mirror images
    pinned = {
        (3, 3): (16, (1, 1, 1, 1, 1, 1, 5, 71, 786, 5904, 22816, 37139, 28780, 3624, 767, 93, 9),
                 (7, 11, 13, 14, 49, 50, 81, 82, 97, 98, 388, 392, 644, 648, 772, 776)),
        (5, 2): (20, (1, 1, 1, 1, 1, 1, 1, 1, 4, 16, 82, 444, 2237, 8694, 22681, 34707, 24576, 6169, 370, 11, 1),
                 (3, 5, 6, 9, 10, 12, 17, 18, 20, 24, 96, 160, 192, 288, 320, 384, 544, 576, 640, 768)),
    }
    for (p, k), (size, by_depth, sets) in pinned.items():
        search = max_sunflower_free(p, k, max_nodes=100_000)
        assert (search.max_size, search.nodes, search.exhaustive) == (size, 100_000, False)
        assert search.nodes_by_depth == by_depth
        assert search.witness.sets == sets and search.witness.ground_size == 10
        assert verify_sunflower_free(search.witness, p)


def test_search_stops_at_the_size_bound():
    # a family of _size_bound(p, k, cap) members proves the maximum, so the
    # node that finds it is the last one counted
    points = SMALL_GRID + [(p, k, cap) for p in range(2, 6) for k in SWEEP_CAPS for cap in SWEEP_CAPS[k]]
    stopped = 0
    for p, k, cap in points:
        if _rebuilding_search(p, k, ground_cap=cap)[0] != _size_bound(p, k, cap):
            continue
        search = max_sunflower_free(p, k, ground_cap=cap)
        short = max_sunflower_free(p, k, max_nodes=search.nodes - 1, ground_cap=cap)
        assert search.exhaustive and short.max_size < search.max_size, (p, k, cap)
        stopped += 1
    assert stopped >= 20


def test_degree_bound_on_the_grid():
    assert {point: _size_bound(point[0], point[1] - 1, point[2] - 1) for point in GRID_DEGREE_BOUNDS} == (
        GRID_DEGREE_BOUNDS)
    # exact wherever k >= 2: the bound is the largest link the cap allows
    for (p, k, cap), degree in GRID_DEGREE_BOUNDS.items():
        if k >= 2:
            assert _rebuilding_search(p, k - 1, ground_cap=cap - 1)[0] == degree, (p, k, cap)
    assert _size_bound(4, 0, 5) == 1 and _size_bound(4, 3, 2) == 0


def test_nodes_by_depth_splits_the_unbounded_search():
    search = max_sunflower_free(3, 2)
    assert search.nodes_by_depth == (1, 1, 3, 8, 16, 11, 3)
    assert sum(search.nodes_by_depth) == search.nodes == 43
    assert max_sunflower_free(3, 2, max_nodes=0).nodes_by_depth == ()


def test_pair_rule_agrees_with_full_extension_test():
    rng = random.Random(5)
    cases = closing = 0
    verdicts = set()
    while cases < 300:
        n, k, p = rng.randint(3, 7), rng.randint(1, 3), rng.randint(2, 6)
        ksets = [m(*c) for c in combinations(range(n), k)]
        rng.shuffle(ksets)
        members = []
        for s in ksets[: rng.randint(0, len(ksets))]:
            if _extends_sunflower_free(members, s, p):
                members.append(s)
        free = [s for s in ksets if s not in members and _extends_sunflower_free(members, s, p)]
        if len(free) < 2:
            continue
        pairs = list(permutations(free, 2))
        # members that could be further petals of a pair's sunflower
        petals = {(a, b): sum(f & (a | b) == a & b for f in members) for a, b in pairs}
        crowded = [pair for pair in pairs if petals[pair] >= p - 2]
        # half the time take a pair with enough of them, so that their disjointness decides
        newest, candidate = rng.choice(crowded if crowded and rng.random() < 0.5 else pairs)
        closes = _closes_sunflower(members, newest, candidate, p)
        assert closes == (not _extends_sunflower_free(members + [newest], candidate, p)), (members, newest, candidate)
        assert closes == contains_sunflower(members + [newest, candidate], p)
        cases += 1
        closing += closes
        verdicts.add((min(p, 5), closes, petals[newest, candidate] >= p - 2))
    assert 30 < closing < 270  # both verdicts are exercised
    # ... by each branch: one further petal (p = 3), two (p = 4) and more (p >= 5),
    # where p = 4 and p >= 5 also refuse pairs with enough but overlapping petals
    assert verdicts >= {(3, False, False), (3, True, True), (4, False, True), (4, True, True), (5, False, True),
                        (5, True, True)}


def test_pair_rule_matches_its_definition_on_larger_grounds():
    # grounds of up to 10 elements leave room for further petals that overlap
    # outside the core, which the sunflower-free cases above rarely reach
    rng = random.Random(13)
    verdicts = set()
    for _ in range(400):
        n, k, p = rng.randint(6, 10), rng.randint(1, 3), rng.randint(2, 7)
        ksets = rng.sample([m(*c) for c in combinations(range(n), k)], min(math.comb(n, k), 16))
        newest, candidate, members = ksets[0], ksets[1], ksets[2 : rng.randint(2, len(ksets))]
        closes = _closes_sunflower(members, newest, candidate, p)
        assert closes == any(
            is_sunflower([newest, candidate, *rest]) is not None for rest in combinations(members, p - 2)
        ), (members, newest, candidate, p)
        petals = sum(f & (newest | candidate) == newest & candidate for f in members)
        verdicts.add((min(p, 5), closes, petals >= p - 2))
    assert verdicts >= {(4, False, True), (4, True, True), (5, False, True), (5, True, True)}


def _canonical_table(used, k):
    """Every k-set whose elements at or above ``used`` are used, used+1, ..."""
    return {((1 << fresh) - 1) << used | m(*old) for fresh in range(k + 1) for old in combinations(range(used), k - fresh)}


def test_twin_rule_agrees_with_full_extension_test():
    rng = random.Random(8)
    cases = twin_rejects = pair_rejects = 0
    while cases < 300:
        k, p = rng.randint(1, 3), rng.randint(2, 4)
        used = rng.randint(k, 5)
        ksets = [m(*c) for c in combinations(range(used), k)]
        rng.shuffle(ksets)
        members = []
        for s in ksets[: rng.randint(1, len(ksets))]:
            if not contains_sunflower(members + [s], p):
                members.append(s)
        span = 0
        for s in members:
            span |= s
        if span != (1 << used) - 1:
            continue
        table = _canonical_table(used, k)
        free = {c for c in table if c > max(members) and not contains_sunflower(members + [c], p)}
        widening = sorted(c for c in free if c >> used)
        if not widening:
            continue
        newest = rng.choice(widening)
        fresh = sorted(_canonical_table(newest.bit_length(), k) - table)
        candidate = rng.choice(fresh)
        twin_free = _twin(candidate, used, k) in free
        closes = _closes_sunflower(members, newest, candidate, p)
        assert (twin_free and not closes) == (not contains_sunflower(members + [newest, candidate], p)), (
            members, newest, candidate)
        cases += 1
        twin_rejects += not twin_free
        pair_rejects += twin_free and closes
    assert twin_rejects > 30 and pair_rejects > 30  # both halves of the rule decide cases


def test_two_distinct_sets_always_form_a_pair_sunflower():
    assert contains_sunflower([m(0, 1), m(0, 2)], 2)
    assert contains_sunflower([m(0, 1), m(2, 3)], 2)


def test_sun_p2_is_2():
    for k in range(1, 6):
        value = sun_value(2, k)
        assert value.exact == 2
        assert value.search.max_size == 1


def test_sun_k1_is_p():
    for p in range(2, 7):
        value = sun_value(p, 1)
        assert value.exact == p
        assert value.search.max_size == p - 1


def test_sun_3_2_is_7():
    value = sun_value(3, 2)
    assert value.exact == 7
    assert value.search.exhaustive
    # envelope
    assert (3 - 1) ** 2 < value.exact <= erdos_rado_upper_bound(3, 2) == 9
    # witness self-verifies via the independent scan
    witness = value.search.witness
    assert len(witness) == 6
    assert verify_sunflower_free(witness, 3)


@pytest.mark.parametrize("p,nodes", [(3, 43), (4, 57_511)])
def test_sun_p_2_matches_chvatal_hanson(p, nodes):
    # a 2-set family is p-sunflower-free exactly when its maximum degree and
    # matching number are <= p - 1; Chvatal and Hanson ("Degrees and
    # matchings", JCT B 20, 1976) give the most edges under both bounds
    nu = delta = p - 1
    value = sun_value(p, 2)
    assert value.exact == nu * delta + (delta // 2) * (nu // -(-delta // 2)) + 1 == {3: 7, 4: 11}[p]
    assert value.search.nodes == nodes
    assert verify_sunflower_free(value.search.witness, p)


def test_two_disjoint_triangles_are_sunflower_free():
    fam = SetFamily(6, 2, TWO_TRIANGLES)
    assert verify_sunflower_free(fam, 3)  # certifies sun_value(3,2) >= 7


def test_canonical_search_agrees_with_naive_search():
    # cross-validate the pruning: same maximum under the same ground cap
    for p, k, grounds in [(3, 1, (2, 3, 4)), (3, 2, (4, 5, 6)), (4, 1, (3, 4, 5))]:
        for g in grounds:
            naive = _naive_max_sunflower_free(p, k, g)
            canonical = max_sunflower_free(p, k, ground_cap=g)
            assert canonical.max_size == naive, (p, k, g)


def test_erdos_rado_families_are_sunflower_free():
    for p, k in [(3, 2), (4, 2), (3, 3)]:
        fam = erdos_rado_family(p, k)
        assert verify_sunflower_free(fam, p)
        assert len(fam) == (p - 1) ** k  # so sun_value(p, k) > (p-1)^k


def test_erdos_rado_families_sunflower_free_up_to_64_members():
    # the p-subset scan explodes combinatorially on the larger grid points;
    # the core-grouped exhaustive search (itself validated against the scan
    # on random families) covers those
    from math import comb

    from sunflowers.extraction import brute_force_sunflower

    grid = [(p, k) for p in range(2, 66) for k in range(1, 7) if (p - 1) ** k <= 64]
    assert len(grid) > 20
    for p, k in grid:
        fam = erdos_rado_family(p, k)
        if comb(len(fam), p) <= 100_000:
            assert verify_sunflower_free(fam, p), (p, k)
        else:
            assert brute_force_sunflower(fam, p) is None, (p, k)


def test_envelope_on_exhaustive_results():
    for p, k in [(2, 3), (3, 1), (3, 2), (4, 1)]:
        value = sun_value(p, k)
        assert value.exact is not None
        assert (p - 1) ** k < value.exact <= erdos_rado_upper_bound(p, k)


def test_timeout_returns_bracket():
    value = sun_value(4, 3, max_nodes=50)
    assert value.exact is None
    assert not value.search.exhaustive
    assert value.lower >= 2  # found at least the single-set family
    assert value.upper == erdos_rado_upper_bound(4, 3)
    # best-so-far witness still verifies
    assert verify_sunflower_free(value.search.witness, 4)


def test_node_budget_is_deterministic():
    full = max_sunflower_free(3, 2)
    assert full.exhaustive and full.nodes > 10
    assert max_sunflower_free(3, 2, max_nodes=full.nodes).exhaustive
    short = max_sunflower_free(3, 2, max_nodes=full.nodes - 1)
    assert not short.exhaustive and short.nodes == full.nodes - 1
    again = max_sunflower_free(3, 2, max_nodes=full.nodes - 1)
    assert (again.max_size, again.witness, again.nodes) == (short.max_size, short.witness, short.nodes)
    with pytest.raises(ValueError):
        max_sunflower_free(3, 2, max_nodes=-1)


@pytest.mark.parametrize("budget", [0.5, 10.0, True, "10"])
def test_non_int_node_budget_is_rejected(budget):
    with pytest.raises(ValueError, match="max_nodes"):
        max_sunflower_free(3, 2, max_nodes=budget)


@pytest.mark.parametrize("kwargs", [{"k": 2.0}, {"k": 2, "ground_cap": 6.5}, {"k": "2"}])
def test_non_int_sizes_are_rejected(kwargs):
    with pytest.raises(TypeError):
        max_sunflower_free(3, **kwargs)


def test_numpy_int_sizes_are_accepted():
    search = max_sunflower_free(3, np.int64(2), ground_cap=np.int32(6))
    assert type(search.k) is int and type(search.witness.ground_size) is int
    assert _outcome(search) == _outcome(max_sunflower_free(3, 2, ground_cap=6))


def test_validation():
    with pytest.raises(ValueError):
        max_sunflower_free(1, 2)
    with pytest.raises(ValueError):
        max_sunflower_free(3, 0)
    with pytest.raises(ValueError):
        max_sunflower_free(3, 2, ground_cap=1)
    with pytest.raises(ValueError, match="p must be >= 1, got 0"):
        contains_sunflower([0b11, 0b1100], 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: max_sunflower_free(1, 2), "p must be >= 2, got 1"),
        (lambda: max_sunflower_free(3, 0), "k must be >= 1, got 0"),
        (lambda: contains_sunflower([0b11, 0b1100], -1), "p must be >= 1, got -1"),
    ],
)
def test_invalid_counts_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
