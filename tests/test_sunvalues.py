from itertools import combinations

import pytest

from sunflowers.bitset import mask_from_elements
from sunflowers.constructions import erdos_rado_family
from sunflowers.families import SetFamily
from sunflowers.sunvalues import (
    contains_sunflower,
    erdos_rado_upper_bound,
    max_sunflower_free,
    sun_value,
    verify_sunflower_free,
)


def m(*elements):
    return mask_from_elements(elements)


TWO_TRIANGLES = [m(0, 1), m(1, 2), m(0, 2), m(3, 4), m(4, 5), m(3, 5)]


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


def test_ground_cap_disables_exactness_claim():
    value = sun_value(3, 2, ground_cap=4)
    assert value.exact is None
    assert value.lower >= 4  # C4 is sunflower-free on 4 vertices


def test_validation():
    with pytest.raises(ValueError):
        max_sunflower_free(1, 2)
    with pytest.raises(ValueError):
        max_sunflower_free(3, 0)
    with pytest.raises(ValueError):
        max_sunflower_free(3, 2, ground_cap=1)
