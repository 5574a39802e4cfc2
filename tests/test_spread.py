import random
from itertools import combinations

import pytest

from sunflowers.bitset import elements_of, mask_from_elements
from sunflowers.constructions import block_product_family
from sunflowers.families import SetFamily
from sunflowers.spread import (
    SpreadViolation,
    containment_counts,
    spread_witness,
    spreadness,
    superset_count,
)


def m(*elements):
    return mask_from_elements(elements)


def star(leaves):
    return SetFamily(leaves + 1, 2, [m(0, i) for i in range(1, leaves + 1)])


# --- superset_count -----------------------------------------------------------


def test_superset_count_examples():
    fam = SetFamily(4, 2, [m(1, 2), m(1, 3), m(2, 3)])
    assert superset_count(fam, m(1)) == 2
    block, _ = block_product_family(2, 2)
    assert superset_count(block, m(0)) == 2  # r^(k-1)
    assert superset_count(fam, m(1, 2)) == 1  # only the member itself


def test_superset_count_rejects_empty_t():
    fam = SetFamily(4, 2, [m(1, 2)])
    with pytest.raises(ValueError):
        superset_count(fam, 0)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
@pytest.mark.parametrize("size", [0, 70])
def test_superset_count_matches_python_oracle_across_word_boundary(n, size):
    rng = random.Random(n + size)
    sets = set()
    while len(sets) < size:
        sets.add(m(*rng.sample(range(n), 3)))
    fam = SetFamily(n, 3, sets)
    ts = [m(n - 1), m(0, n - 1), m(62, 63, 64) if n > 64 else m(n - 3, n - 2, n - 1)]
    ts += [s & ~(1 << rng.choice(elements_of(s))) for s in sorted(sets)[:20]]  # 2-subsets of members
    ts += [m(*rng.sample(range(n), rng.randint(1, 2))) for _ in range(40)]
    for t in ts:
        assert superset_count(fam, t) == sum(1 for s in fam.sets if s & t == t), hex(t)
    assert size == 0 or max(superset_count(fam, t) for t in ts) > 0
    assert superset_count(fam, 1 << n) == 0  # outside the ground set


def _naive_counts(family):
    # oracle: scan every non-empty subset of the whole ground set
    counts = {}
    n = family.ground_size
    for t in range(1, 1 << n):
        c = sum(1 for s in family.sets if s & t == t)
        if c:
            counts[t] = c
    return counts


def test_containment_counts_match_naive_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(3, n))
        size = rng.randint(1, 8)
        sets = rng.sample([m(*c) for c in combinations(range(n), k)],
                          min(size, len(list(combinations(range(n), k)))))
        fam = SetFamily(n, k, sets)
        assert containment_counts(fam) == _naive_counts(fam)


# --- spread_witness ------------------------------------------------------------


def test_block_family_certified_at_its_width():
    fam, _ = block_product_family(2, 2)
    assert spread_witness(fam, 2.0).certified


def test_star_violates_at_r3():
    report = spread_witness(star(4), 3.0)
    assert report.violation == SpreadViolation(t=m(0), count=4)
    # the certificate self-verifies
    assert superset_count(star(4), m(0)) == 4


def test_huge_r_always_certifies():
    for fam in (star(4), block_product_family(2, 3)[0]):
        assert spread_witness(fam, float(len(fam))).certified


def test_violation_tie_break_prefers_small_then_lexicographic():
    # {0} and {5} are both violating singletons at r = 1.5; {0} has the
    # smaller mask
    fam = SetFamily(6, 2, [m(0, 1), m(0, 2), m(5, 3), m(5, 4)])
    report = spread_witness(fam, 1.5)
    assert report.violation == SpreadViolation(t=m(0), count=2)


def test_worst_flag_returns_maximal_ratio():
    # {0} sits in 3 members, {5} in 2: both violate r=1.2 but {0} is worse
    fam = SetFamily(7, 2, [m(0, 1), m(0, 2), m(0, 3), m(5, 4), m(5, 6)])
    report = spread_witness(fam, 1.2, worst=True)
    assert report.violation is not None and report.violation.t == m(0)
    assert report.violation.count == 3


def test_monotone_in_r():
    fam = star(4)
    certified = [spread_witness(fam, r).certified for r in (1.0, 2.0, 3.9, 4.0, 4.1, 10.0)]
    assert certified == sorted(certified)  # once certified, stays certified


def test_spread_witness_validates():
    with pytest.raises(ValueError):
        spread_witness(SetFamily(2, 1, [m(0)]), 0.0)
    with pytest.raises(ValueError):
        spread_witness(SetFamily(2, 1, []), 1.0)


# --- spreadness -------------------------------------------------------------------


def test_spreadness_examples():
    assert spreadness(block_product_family(2, 3)[0]) == pytest.approx(3.0, abs=1e-12)
    assert spreadness(star(4)) == pytest.approx(4.0, abs=1e-12)
    assert spreadness(SetFamily(4, 2, [m(0, 1)])) == 1.0


def test_spreadness_certifies_itself():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(4, n))
        all_ksets = [m(*c) for c in combinations(range(n), k)]
        fam = SetFamily(n, k, rng.sample(all_ksets, rng.randint(1, min(10, len(all_ksets)))))
        value = spreadness(fam)
        assert spread_witness(fam, value).certified
        # and any r below it (by a hair more than a rounding step) fails
        if value > 1.0:
            assert not spread_witness(fam, value * (1 - 1e-9)).certified


def test_certified_iff_spreadness_at_most_r():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(4, n))
        all_ksets = [m(*c) for c in combinations(range(n), k)]
        fam = SetFamily(n, k, rng.sample(all_ksets, rng.randint(1, min(10, len(all_ksets)))))
        value = spreadness(fam)
        for r in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, value):
            assert spread_witness(fam, r).certified == (value <= r)


@pytest.mark.parametrize("k,r", [(k, r) for k in range(2, 9) for r in range(1, 9) if k * r <= 16])
def test_block_family_spreadness_is_exactly_r(k, r):
    fam, _ = block_product_family(k, r)
    assert abs(spreadness(fam) - r) <= 1e-9
