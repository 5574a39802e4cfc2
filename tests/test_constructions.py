import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from sunflowers.bitset import mask_from_elements
from sunflowers.constructions import (
    FAMILY_SIZE_CAP,
    BlockPartition,
    block_product_family,
    erdos_rado_family,
    exact_block_hit_probability,
    in_tightness_regime,
)
from sunflowers.spread import superset_count
from sunflowers.sunvalues import contains_sunflower


def m(*elements):
    return mask_from_elements(elements)


def _product_oracle(k, r):
    # every choice of one element per block, as masks, ascending
    return sorted(sum(1 << (i * r + c) for i, c in enumerate(choices)) for choices in product(range(r), repeat=k))


def test_block_layout_is_fixed():
    part = BlockPartition(2, 2)
    assert part.blocks == (m(0, 1), m(2, 3))
    assert part.ground_size == 4


def test_block_product_2x2():
    fam, part = block_product_family(2, 2)
    assert fam.sets == (m(0, 2), m(1, 2), m(0, 3), m(1, 3)) or set(fam.sets) == {
        m(0, 2),
        m(0, 3),
        m(1, 2),
        m(1, 3),
    }
    assert len(fam) == 4
    assert part.blocks == (m(0, 1), m(2, 3))


def test_block_product_single_block():
    fam, _ = block_product_family(1, 3)
    assert fam.sets == (m(0), m(1), m(2))


def test_block_product_unique_transversal():
    fam, _ = block_product_family(3, 1)
    assert fam.sets == (m(0, 1, 2),)


@pytest.mark.parametrize("k,r", [(1, 5), (2, 3), (3, 2), (4, 2), (2, 4)])
def test_family_size_is_r_to_the_k(k, r):
    fam, _ = block_product_family(k, r)
    assert len(fam) == r**k
    assert fam.ground_size == r * k
    assert _product_oracle(k, r) == list(fam.sets)


@pytest.mark.parametrize("k,r", [(1, 1), (1, 7), (3, 1), (2, 5), (3, 4), (4, 3), (5, 2), (2, 40), (2, 130)])
def test_block_product_matches_product_oracle(k, r):
    fam, _ = block_product_family(k, r)
    expected = _product_oracle(k, r)
    rows = [[e for e in range(k * r) if s >> e & 1] for s in expected]
    assert fam.elements().tolist() == rows
    assert fam.elements().dtype == (np.uint8 if k * r <= 256 else np.uint16)
    assert fam.elements().flags.c_contiguous and not fam.elements().flags.writeable
    assert fam.sets == tuple(expected)


def test_block_6_10_is_built_without_masks():
    # a million members: the matrix is 6 MB of uint8; masks alone would take about 60 MB
    tracemalloc.start()
    try:
        fam, _ = block_product_family(6, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert fam._sets is None and len(fam) == 10**6
    assert fam.elements()[[0, 1, -1]].tolist() == [[0, 10, 20, 30, 40, 50], [1, 10, 20, 30, 40, 50],
                                                    [9, 19, 29, 39, 49, 59]]


def test_size_cap_refused():
    assert 3**30 > FAMILY_SIZE_CAP
    with pytest.raises(ValueError, match="exceeds the family-size cap"):
        block_product_family(30, 3)


def test_every_member_is_a_transversal():
    fam, part = block_product_family(3, 3)
    for member in fam.sets:
        assert all((member & block).bit_count() == 1 for block in part.blocks)


@pytest.mark.parametrize("k,r", [(2, 2), (2, 3), (3, 2)])
def test_partial_transversals_have_power_counts(k, r):
    # for T picking one element in each of j blocks the count is r^(k-j)
    fam, part = block_product_family(k, r)
    for j in range(1, k + 1):
        for blocks in combinations(range(k), j):
            t = m(*(b * r for b in blocks))  # first element of each chosen block
            assert superset_count(fam, t) == r ** (k - j)
    # T hitting one block twice is in no member
    if r >= 2:
        assert superset_count(fam, m(0, 1)) == 0


# --- Erdos-Rado lower-bound family ----------------------------------------------


def test_erdos_rado_family_p3_k2():
    fam = erdos_rado_family(3, 2)
    assert len(fam) == 4
    assert not contains_sunflower(fam.sets, 3)


def test_erdos_rado_family_p2_k3():
    fam = erdos_rado_family(2, 3)
    assert fam.sets == (m(0, 1, 2),)


def test_erdos_rado_family_p4_k2_exhaustive():
    fam = erdos_rado_family(4, 2)
    assert len(fam) == 9
    # oracle: scan all 4-subsets of the family directly
    assert not contains_sunflower(fam.sets, 4)


# --- closed-form hit probability ---------------------------------------------------


def _enumeration_oracle(k, r, delta):
    # independent of the library paths: walk all 2^(rk) ground subsets
    fam, part = block_product_family(k, r)
    n = r * k
    total = 0.0
    for y in range(1 << n):
        if any(s & ~y == 0 for s in fam.sets):
            total += delta ** y.bit_count() * (1 - delta) ** (n - y.bit_count())
    return total


def test_exact_block_hit_probability_2x2():
    oracle = _enumeration_oracle(2, 2, 0.5)
    assert abs(oracle - 9 / 16) < 1e-12
    assert exact_block_hit_probability(2, 2, 0.5) == pytest.approx(9 / 16, abs=1e-15)


def test_exact_block_hit_probability_singleton():
    assert exact_block_hit_probability(1, 1, 0.3) == pytest.approx(0.3, abs=1e-15)


def test_exact_block_hit_probability_4x2():
    assert exact_block_hit_probability(4, 2, 0.3) == pytest.approx(0.51**4, abs=1e-15)
    assert exact_block_hit_probability(4, 2, 0.3) == pytest.approx(
        _enumeration_oracle(4, 2, 0.3), abs=1e-12
    )


def test_exact_block_hit_probability_validates_delta():
    with pytest.raises(ValueError):
        exact_block_hit_probability(2, 2, 0.0)
    with pytest.raises(ValueError):
        exact_block_hit_probability(2, 2, 1.0)


# --- tightness regime ----------------------------------------------------------------


def test_regime_spot_values():
    assert 0.25 * 2 * math.log(16 / 0.5) == pytest.approx(1.7328679513998633)
    assert in_tightness_regime(16, 1, 0.5, 0.5)
    assert 0.25 * 2 * math.log(2 / 0.5) == pytest.approx(0.6931471805599453)
    assert not in_tightness_regime(2, 2, 0.5, 0.5)


def test_regime_bound_vanishes_as_k_approaches_eps():
    # the bound is 0.25/delta * ln(k/eps); as k/eps -> 1 it drops below any
    # r >= 1, so nothing qualifies (k/eps = 1 itself is outside the eps range)
    assert 0.25 * 2 * math.log(1 / 0.5) == pytest.approx(0.34657359, abs=1e-8)
    assert not in_tightness_regime(1, 1, 0.5, 0.5)


def test_regime_validates_ranges():
    with pytest.raises(ValueError):
        in_tightness_regime(2, 1, 0.6, 0.5)
    with pytest.raises(ValueError):
        in_tightness_regime(2, 1, 0.5, 0.6)
    with pytest.raises(ValueError):
        in_tightness_regime(0, 1, 0.5, 0.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BlockPartition(0, 2), "need k >= 1 and r >= 1, got k=0, r=2"),
        (lambda: erdos_rado_family(1, 2), "p must be >= 2, got 1"),
    ],
)
def test_invalid_sizes_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
