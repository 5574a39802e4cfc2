import dataclasses
import hashlib
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunflowers import probability
from sunflowers.bitset import mask_from_elements
from sunflowers.constructions import BlockPartition, block_product_family, exact_block_hit_probability, in_tightness_regime
from sunflowers.families import SetFamily
from sunflowers.probability import (
    CHERNOFF_TAIL_N_CAP,
    check_chernoff_tail,
    check_fixed_size_decomposition,
    check_partition_mean_identity,
    exact_hit_probability,
    hit_counts_by_size,
    hit_threshold_sweep,
    mc_block_hit_probability,
    mc_hit_probability,
    partition_experiment,
)
from sunflowers.rng import STREAM_BERNOULLI, STREAM_PARTITION, bernoulli_block, uniform_block


def m(*elements):
    return mask_from_elements(elements)


def random_family(rng, n_max=10, k_max=4, size_max=10):
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n))
    all_ksets = [m(*c) for c in combinations(range(n), k)]
    size = rng.randint(0, min(size_max, len(all_ksets)))
    return SetFamily(n, k, rng.sample(all_ksets, size))


# --- exact hit probability ---------------------------------------------------------


def hit_indicator_table(family):
    """Oracle: one byte per ground subset Y, set iff Y contains a member.

    Superset closure of the member indicator, one element per pass.
    """
    hit = np.zeros(1 << family.ground_size, dtype=bool)
    for mask in family.sets:
        hit[mask] = True
    for i in range(family.ground_size):
        view = hit.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    return hit


def oracle_counts_by_size(family):
    """Popcount histogram of the hitting subsets in the byte table."""
    n = family.ground_size
    hit = hit_indicator_table(family)
    counts = np.zeros(n + 1, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 20):
        stop = min(start + (1 << 20), 1 << n)
        sizes = np.bitwise_count(np.arange(start, stop, dtype=np.uint32))
        counts += np.bincount(sizes[hit[start:stop]], minlength=n + 1)
    return counts


def relabelled_block_3_8():
    fam, _ = block_product_family(3, 8)
    perm = list(range(24))
    random.Random(8).shuffle(perm)
    relabel = [mask_from_elements(perm[e] for e in range(24) if s >> e & 1) for s in fam.sets]
    return SetFamily(24, 3, relabel)


def test_hit_table_marks_supersets():
    fam = SetFamily(3, 2, [m(0, 1)])
    table = hit_indicator_table(fam)
    assert [int(x) for x in table] == [0, 0, 0, 1, 0, 0, 0, 1]


def _word_boundary_families(n):
    rng = random.Random(1000 + n)
    families = [SetFamily(n, 1, []), SetFamily(n, 0, [0]), SetFamily(n, n, [(1 << n) - 1])]
    for size in (3, 20, 60):
        k = rng.randint(1, min(5, n))
        ksets = set()
        while len(ksets) < min(size, math.comb(n, k)):
            ksets.add(mask_from_elements(rng.sample(range(n), k)))
        families.append(SetFamily(n, k, sorted(ksets)))
    if n == 24:
        families.append(relabelled_block_3_8())
    return families


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 18, 24])
def test_packed_counts_match_byte_table_across_the_word_boundary(n):
    # n <= 6 fills part of one table word, n = 7 two words; the closure crosses
    # from in-word shifts to word doubling at element 6
    for fam in _word_boundary_families(n):
        counts = hit_counts_by_size(fam)
        assert counts.dtype == np.int64 and counts.tolist() == oracle_counts_by_size(fam).tolist()
        if len(fam) <= 20:
            for delta in (0.13, 0.5, 0.86):
                a = exact_hit_probability(fam, delta, method="enumeration").p_hat
                b = exact_hit_probability(fam, delta, method="inclusion-exclusion").p_hat
                assert abs(a - b) <= 1e-12


def test_packed_counts_stay_within_8_mib_on_block_3_8():
    fam, _ = block_product_family(3, 8)  # n = 24; the byte table alone is 16 MiB
    hit_counts_by_size(fam)  # warm numpy's own first-call allocations
    tracemalloc.start()
    try:
        counts = hit_counts_by_size(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert counts[3] == 8**3 and counts[24] == 1


@pytest.mark.parametrize("n", [16, 17, 18, 24])
def test_packed_counts_at_the_extremes_of_the_size_fold(n):
    # {empty set} hits every subset, so size j counts C(n, j): 2,704,156 at n = 24, past uint16;
    # the fold widens its counts between n = 17 and n = 18
    assert hit_counts_by_size(SetFamily(n, 0, [0])).tolist() == [math.comb(n, j) for j in range(n + 1)]
    assert hit_counts_by_size(SetFamily(n, n, [(1 << n) - 1])).tolist() == [0] * n + [1]
    if n < 24:
        rng = random.Random(n)
        for k, size in [(1, n), (2, 40), (5, 300)]:
            fam = SetFamily(n, k, {mask_from_elements(rng.sample(range(n), k)) for _ in range(size)})
            assert hit_counts_by_size(fam).tolist() == oracle_counts_by_size(fam).tolist()


def test_exact_block_2x2_is_9_16():
    fam, _ = block_product_family(2, 2)
    by_enum = exact_hit_probability(fam, 0.5, method="enumeration")
    by_ie = exact_hit_probability(fam, 0.5, method="inclusion-exclusion")
    assert by_enum.p_hat == pytest.approx(9 / 16, abs=1e-15)
    assert by_ie.p_hat == pytest.approx(9 / 16, abs=1e-15)
    assert by_enum.trials == 0 and by_enum.half_width_3sigma == 0.0


def test_exact_single_set_is_delta_to_k():
    fam = SetFamily(5, 3, [m(0, 2, 4)])
    for delta in (0.2, 0.5, 0.9):
        assert exact_hit_probability(fam, delta).p_hat == pytest.approx(delta**3, abs=1e-14)


def test_exact_empty_family_is_zero():
    fam = SetFamily(4, 2, [])
    assert exact_hit_probability(fam, 0.37).p_hat == 0.0
    assert exact_hit_probability(fam, 0.37, method="inclusion-exclusion").p_hat == 0.0


def test_exact_paths_agree_on_random_families():
    rng = random.Random(31337)
    for _ in range(60):
        fam = random_family(rng)
        for delta in (0.13, 0.5, 0.86):
            a = exact_hit_probability(fam, delta, method="enumeration").p_hat
            b = exact_hit_probability(fam, delta, method="inclusion-exclusion").p_hat
            assert a == b


@pytest.mark.parametrize("k, r", [(3, 8), (5, 4), (2, 8)])
def test_enumeration_is_correctly_rounded_on_block_families(k, r):
    # block(k, r) is hit iff every block is met: (1 - (1 - d)^r)^k exactly
    fam, _ = block_product_family(k, r)
    for i in range(1, 100):
        d = Fraction(i / 100)
        expected = float((1 - (1 - d) ** r) ** k)
        assert exact_hit_probability(fam, i / 100, method="enumeration").p_hat == expected, i


def test_inclusion_exclusion_is_exact_where_its_terms_cancel():
    # 18 singletons: coefficients +-C(18, u) nearly cancel to 1 - 0.14^18;
    # a float sum of the terms was 2.6e-12 off
    fam = SetFamily(18, 1, [m(i) for i in range(18)])
    d = Fraction(0.86)
    value = exact_hit_probability(fam, 0.86, method="inclusion-exclusion").p_hat
    assert value == float(1 - (1 - d) ** 18)
    assert value == exact_hit_probability(fam, 0.86, method="enumeration").p_hat


def test_exact_monotone_in_delta():
    fam, _ = block_product_family(2, 2)
    values = [exact_hit_probability(fam, d).p_hat for d in np.linspace(0.05, 0.95, 19)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_exact_wide_ground_uses_inclusion_exclusion():
    # a support of 26 elements is too wide for enumeration: IE still works
    fam = SetFamily(70, 2, [m(5 * i, 5 * i + 4) for i in range(13)])
    est = exact_hit_probability(fam, 0.5)
    assert est.method == "inclusion-exclusion"
    # 13 disjoint pairs: 1 - (1 - d^2)^13
    assert est.p_hat == float(1 - Fraction(3, 4) ** 13)


def test_exact_paths_work_on_the_support():
    # block(3,8) spread over n = 40: its support of 24 elements allows enumeration
    fam, _ = block_product_family(3, 8)
    spread = [40 * e // 24 for e in range(24)]
    fam = SetFamily(40, 3, [mask_from_elements(spread[e] for e in range(24) if s >> e & 1) for s in fam.sets])
    est = exact_hit_probability(fam, 0.25)
    assert est.method == "enumeration" and est.p_hat == 0.7287256508781148 == float(_exact_block_hit(3, 8, 0.25))
    sub = SetFamily(40, 3, fam.sets[::26])  # 20 members: both paths run
    for delta in (0.13, 0.25, 0.86):
        a = exact_hit_probability(sub, delta, method="enumeration").p_hat
        assert a == exact_hit_probability(sub, delta, method="inclusion-exclusion").p_hat


def test_exact_caps_enforced():
    fam = SetFamily(30, 1, [m(i) for i in range(25)])
    with pytest.raises(ValueError, match="no exact path: support size 25 > 24 and family size 25 > 20"):
        exact_hit_probability(fam, 0.5)
    with pytest.raises(ValueError, match="25 elements exceed enumeration cap 24"):
        exact_hit_probability(fam, 0.5, method="enumeration")


# --- Monte Carlo --------------------------------------------------------------------


def test_mc_lands_within_3_sigma_of_exact():
    fam, _ = block_product_family(2, 2)
    est = mc_hit_probability(fam, 0.5, trials=100_000, seed=0)
    assert abs(est.p_hat - 9 / 16) <= est.half_width_3sigma
    assert est.method == "monte-carlo" and est.trials == 100_000


def test_mc_block_form_matches_materialized_family():
    fam, _ = block_product_family(3, 2)
    a = mc_hit_probability(fam, 0.4, trials=9_999, seed=11)
    b = mc_block_hit_probability(3, 2, 0.4, trials=9_999, seed=11)
    assert a.p_hat == b.p_hat


def test_mc_tiny_probability():
    fam = SetFamily(8, 8, [m(*range(8))])
    est = mc_hit_probability(fam, 0.05, trials=2_000, seed=3)
    assert est.p_hat == 0.0 and est.half_width_3sigma == 0.0


# ground sizes around the 64-bit word boundary and around the containment
# kernel's groups of up to 8 elements (a short last group); 64 and 65 members
# fill one word or leave padding bits in a second, 0 members leave no word
# at all.  Trial counts of 1 and 32 pull the group width down, 3,000 lets it
# reach 8.
WORD_BOUNDARY_CASES = [(n, size) for n in (1, 7, 8, 9, 17, 63, 64, 65, 130) for size in (0, 1, 64, 65)
                       if size <= math.comb(n, n // 2)]
KERNEL_TRIALS = (1, 32, 300, 3000)


def wide_family(n, size, k=3):
    k = min(k, n) if math.comb(n, min(k, n)) >= size else n // 2
    rng = random.Random(n)
    sets = set()
    while len(sets) < size:
        sets.add(m(*rng.sample(range(n), k)))
    return SetFamily(n, k, sets)


def _unpacked(rows, n):
    # packed sampler rows (bit j of byte i is element 8i + j) as boolean rows
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


def _contains_member(family, rows):
    # the kernel as its callers use it: tables built for all the rows, then applied
    return probability._contains_member(*probability._member_tables(family, len(rows)), rows)


def _oracle_contains(family, row):
    # oracle: plain Python-int containment of one boolean sample row
    sample = mask_from_elements(int(e) for e in np.flatnonzero(row))
    return any(s & ~sample == 0 for s in family.sets)


@pytest.fixture(params=[None, 48], ids=["default-tiles", "tiny-tiles"])
def kernel_tiles(request, monkeypatch):
    # tiny tiles split every chunk into many trial tiles with a ragged last
    # one, and leave no room for tables wider than one element
    if request.param is not None:
        monkeypatch.setattr(probability, "_KERNEL_TILE_BYTES", request.param)


def test_word_boundary_cases_reach_every_group_width():
    widths = {probability._group_width(wide_family(n, size).holders()[0], -(-size // 64), trials)
              for n, size in WORD_BOUNDARY_CASES for trials in KERNEL_TRIALS}
    assert widths == set(range(1, 9))


@pytest.mark.parametrize("trials", KERNEL_TRIALS)
@pytest.mark.parametrize("n,size", WORD_BOUNDARY_CASES)
def test_mc_hits_match_python_oracle_across_word_boundary(n, size, trials, kernel_tiles):
    fam = wide_family(n, size)
    delta, seed = 0.3, 17
    bits = _unpacked(bernoulli_block(seed, STREAM_BERNOULLI, 0, trials, n, delta), n)
    hits = sum(_oracle_contains(fam, row) for row in bits)
    assert size == 0 or trials < 300 or 0 < hits < trials
    assert mc_hit_probability(fam, delta, trials, seed=seed).p_hat == hits / trials


# the partition reducer adds nothing width-specific, so it skips the 3,000-trial
# cases, which cost seconds each under tiny tiles
@pytest.mark.parametrize("trials", KERNEL_TRIALS[:-1])
@pytest.mark.parametrize("n,size", WORD_BOUNDARY_CASES)
def test_partition_histogram_matches_python_oracle_across_word_boundary(n, size, trials, kernel_tiles):
    fam = wide_family(n, size, k=2)
    classes, seed = 3, 23
    assign = (uniform_block(seed, STREAM_PARTITION, 0, trials, n) * classes).astype(np.int32)
    expected = [0] * (classes + 1)
    for row in assign:
        expected[sum(_oracle_contains(fam, row == c) for c in range(classes))] += 1
    assert size == 0 or trials < 300 or expected[0] < trials
    assert partition_experiment(fam, classes, trials, seed=seed).hit_class_histogram == tuple(expected)


@st.composite
def uniform_families(draw):
    n = draw(st.integers(1, 70))
    k = draw(st.integers(0, min(n, 4)))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=k, max_size=k), max_size=80))
    return SetFamily(n, k, {mask_from_elements(s) for s in sets})


@settings(derandomize=True, deadline=None, max_examples=100)
@given(uniform_families(), st.data())
def test_contains_member_matches_python_oracle_row_by_row(fam, data):
    n = fam.ground_size
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=12))
    # a sample equal to one member hits through that member alone, so every element it reads counts
    rows += [[bool(s >> e & 1) for e in range(n)] for s in fam.sets]
    repeat = data.draw(st.sampled_from([1, 30, 300]))  # copies give room for wider groups
    bits = np.tile(np.array(rows, dtype=bool).reshape(len(rows), n), (repeat, 1))
    expected = [_oracle_contains(fam, row) for row in rows] * repeat
    packed = np.packbits(bits, axis=1, bitorder="little")
    assert _contains_member(fam, packed).tolist() == expected


@pytest.mark.parametrize("size", [512, 513], ids=["8-words", "9-words"])
def test_kernel_or_rules_match_python_oracle(size, kernel_tiles):
    # rows of at most 8 words fold their columns; wider rows take the segmented reduction
    fam = wide_family(30, size)
    rows = bernoulli_block(5, STREAM_BERNOULLI, 0, 300, 30, 0.1)
    expected = [_oracle_contains(fam, row) for row in _unpacked(rows, 30)]
    assert 0 < sum(expected) < 300
    assert _contains_member(fam, rows).tolist() == expected


def test_group_width_rule():
    def width(n, words, trials):  # on a support of every element
        return probability._group_width(np.arange(n), words, trials)

    assert width(64, 2048, 8192) == 1  # two-element tables would exceed the budget
    assert width(24, 8, 8192) == 8  # block(3,8) at 8,192 trials
    assert width(64, 1024, 32) == 2  # block(4,16) at 32 trials: tables cost more than trials
    for n, words, trials in product((1, 9, 30, 64, 130), (0, 1, 122, 1024, 4096), (1, 32, 8192)):
        w = width(n, words, trials)
        assert w == 1 or -(-n // w) * (words << w) * 8 <= probability._KERNEL_TILE_BYTES
    # only the groups that meet the support count: two far-apart pairs take 2 groups at any width
    assert probability._group_width(np.array([0, 1, 4094, 4095]), 1, 8192) == 2


def _pinned_mc_cases():
    """(estimator, {trials: SHA-256 of the estimate as JSON}), computed while each
    8,192-trial chunk still rebuilt the kernel tables; the smaller trial count
    is the one run under one-trial tiles."""
    cases = [
        (lambda trials, n=n: mc_hit_probability(wide_family(n, 70), 0.3, trials, seed=5), digests)
        for n, digests in [
            (63, {20_001: "34b28429f7d00458088198b689b741271ae42c19f644c50b271cb8e45bc468d7",
                  300: "bdd6f7e989482ed44e32ea86bf74997f6e18ba54fb1d9c2a49906c3fa7734ce1"}),
            (64, {20_001: "79128d85bb45dd7276acae2a1c17839132f03eb341cacaa997197bf3319234af",
                  300: "8dfcfe8a1a5e7bdeeeb432323f2f43af2280b226e99a167dc9481aa6b20083e3"}),
            (65, {20_001: "21648ad35d73825cace8aa9090d071b93fd6bd981619a1d0dc25421d3f6a322d",
                  300: "a6fce3cfa884ad6db27195ab422800b85a7725bb1e94831a5264de0f811c3636"}),
            (130, {20_001: "91ea9c85498583d8a900f5c2560835ac7dafab59ea22f182282ff7861b86ad27",
                   300: "b2cb8b57feb716327fea8b3173cb1620a04996afda24819efa180501372c467f"}),
        ]
    ]
    block_5_6 = block_product_family(5, 6)[0]
    return cases + [
        (lambda trials: mc_hit_probability(block_5_6, 0.25, trials, seed=1), {
            16_384: "b41e77c8939c9827d7ce790ccae08567af67f563c117339f446db293e7bf8f7e",
            300: "41becce91c567f0f52a3bb61560bc9b51da5e1b72f7b1755c90fad8be8dd7bda"}),
        (lambda trials: mc_block_hit_probability(3, 8, 0.25, trials, seed=1729), {
            20_000: "957c945fd940bba5406b75abc8b384cccf8db270f43b62238bbae1c1fc38ddba",
            300: "0837181c34d9c15f91439f804eb1d6abdb193fd311fe1ed61adc0c5e3b05cd95"}),
    ]


# a budget of 1 byte gives one-trial tiles, run only on the smaller count; 3,000 bytes give
# sampler tiles of 176 to 1,000 trials, with a ragged last one
@pytest.mark.parametrize("tile_bytes", [None, 1, 3000])
def test_mc_estimates_are_pinned(tile_bytes, monkeypatch):
    if tile_bytes is not None:
        monkeypatch.setattr(probability, "_KERNEL_TILE_BYTES", tile_bytes)
    for estimate, digests in _pinned_mc_cases():
        for trials, digest in digests.items() if tile_bytes != 1 else [min(digests.items())]:
            payload = json.dumps(dataclasses.asdict(estimate(trials)))
            assert hashlib.sha256(payload.encode()).hexdigest() == digest, trials


def test_mc_memory_is_bounded_on_block_5_6():
    # 7,776 members x 16,384 trials: no |F| x chunk temporary may be held
    fam, _ = block_product_family(5, 6)
    tracemalloc.start()
    try:
        mc_hit_probability(fam, 0.25, trials=16_384, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_mc_memory_is_bounded_at_n_50000():
    # two pairs at n = 50,000: tables for the groups the support meets, and sampler tiles
    # of 2^20 bytes of packed rows; sizing by n took about 1 GiB here
    fam = SetFamily(50_000, 2, [m(0, 49_999), m(7, 8)])
    tracemalloc.start()
    try:
        est = mc_hit_probability(fam, 0.5, trials=8192, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert est.p_hat == 0.4410400390625  # the value that sizing by n gave


def test_kernel_tables_stay_within_the_tile_budget_on_block_4_16():
    # 65,536 members in 1,024 words, n = 64, 8,192 trials
    fam, _ = block_product_family(4, 16)
    words, budget = fam.holders()[1].shape[1], probability._KERNEL_TILE_BYTES
    w = probability._group_width(np.arange(64), words, 8192)
    assert w > 1 and -(-64 // w) * (words << w) * 8 <= budget
    rows = bernoulli_block(1, STREAM_BERNOULLI, 0, 8192, 64, 0.125)
    bits = _unpacked(rows, 64)
    tracemalloc.start()
    try:
        hits = _contains_member(fam, rows)
        _, kernel_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        mc_hit_probability(fam, 0.125, trials=8192, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a sample contains a transversal iff it meets every block
    assert hits.tolist() == bits.reshape(8192, 4, 16).any(axis=2).all(axis=1).tolist()
    # the tables take one budget, and so do their build's scratch or the alive and gathered rows
    assert kernel_peak < 3 * budget
    assert peak < 64 * 2**20


def test_union_size_coefficients_match_brute_force_at_n70():
    fam = SetFamily(70, 3, [m(0, 1, 2), m(2, 63, 64), m(64, 65, 69), m(5, 33, 69),
                            m(1, 40, 63), m(10, 11, 12), m(12, 66, 68), m(0, 64, 67)])
    expected = [0] * 71
    for r in range(1, len(fam) + 1):
        for members in combinations(fam.sets, r):
            union = 0
            for s in members:
                union |= s
            expected[union.bit_count()] += 1 if r % 2 else -1
    assert probability._union_size_coefficients(fam).tolist() == expected


def union_coefficients_of_prefixes(masks, n):
    """Oracle: entry s is the c_u list of the first s masks, from one Python-int union per subfamily."""
    unions, signs = [0], [-1]  # the empty subfamily, even
    coefficients = [0] * (n + 1)
    prefixes = [list(coefficients)]
    for mask in masks:
        grown = [union | mask for union in unions]
        flipped = [-sign for sign in signs]
        for union, sign in zip(grown, flipped):
            coefficients[union.bit_count()] += sign
        unions += grown
        signs += flipped
        prefixes.append(list(coefficients))
    return prefixes


@pytest.mark.parametrize("n", [40, 100, 170])
def test_union_size_coefficients_match_brute_force_up_to_the_cap(n):
    # supports of 1, 2 and 3 words, not relabelled; odd |F| splits into unequal halves
    rng = random.Random(n)
    masks = []
    while len(masks) < probability.EXACT_IE_FAMILY_CAP:
        mask = mask_from_elements(rng.sample(range(n), 3))
        if mask not in masks:
            masks.append(mask)
    expected = union_coefficients_of_prefixes(masks, n)
    for size in range(len(masks) + 1):
        fam = SetFamily(n, 3, masks[:size])
        assert probability._union_size_coefficients(fam).tolist() == expected[size], size


def test_exact_paths_agree_bit_for_bit_at_the_family_cap():
    # 20 members of a relabelled block(3,8): 24 support elements, both caps reached
    rng = random.Random(20)
    for _ in range(3):
        fam = SetFamily(24, 3, rng.sample(relabelled_block_3_8().sets, probability.EXACT_IE_FAMILY_CAP))
        for delta in (0.05, 0.13, 0.3, 0.45, 0.86):
            a = exact_hit_probability(fam, delta, method="enumeration").p_hat
            b = exact_hit_probability(fam, delta, method="inclusion-exclusion").p_hat
            assert a == b, delta


def test_union_size_coefficients_stay_below_16_mib_at_the_family_cap():
    # a 2^20-row table of unions with its intp keys takes 16 MiB alone
    fam = SetFamily(24, 3, random.Random(20).sample(relabelled_block_3_8().sets, probability.EXACT_IE_FAMILY_CAP))
    probability._union_size_coefficients(fam)  # warm numpy's own first-call allocations
    tracemalloc.start()
    try:
        coefficients = probability._union_size_coefficients(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
    assert coefficients[3] == probability.EXACT_IE_FAMILY_CAP and coefficients.sum() == 1


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_mc_rejects_seeds_outside_64_bits(seed):
    # they used to alias the streams of seeds 2**64 - 1 and 0
    with pytest.raises(ValueError, match="seed must be in"):
        mc_hit_probability(block_product_family(2, 2)[0], 0.5, trials=100, seed=seed)


def _count_kernel_calls(monkeypatch):
    calls = {"_member_tables": 0, "_contains_member": 0}
    for name in calls:
        def counted(*args, name=name, original=getattr(probability, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(probability, name, counted)
    return calls


@pytest.mark.parametrize("n, tiles", [(6, 1), (4800, 12), (48_000, 115)])
def test_mc_builds_the_kernel_tables_once(n, tiles, monkeypatch):
    # the sampler's tiles hold 2^20 bytes of packed rows: all 20,001 trials at n = 6,
    # 1,747 trials at n = 4,800 and 174 at n = 48,000
    calls = _count_kernel_calls(monkeypatch)
    mc_hit_probability(SetFamily(n, 2, [m(0, n - 1), m(1, 2)]), 0.3, trials=20_001, seed=5)
    assert calls == {"_member_tables": 1, "_contains_member": tiles}


def test_partition_builds_the_kernel_tables_once(monkeypatch):
    # n = 4,096 gives tiles of 32 trials, so 8,192 trials take 256 tiles; tables are
    # built only for the groups that meet the support {0, 3, 4, 4095}: 2 of them
    fam = SetFamily(4096, 2, [m(0, 4095), m(3, 4)])
    tables, first = probability._member_tables(fam, 2 * 8192)
    assert len(tables) == len(first) == 2 and first[0] == 0 and first[1] > 4000
    calls = _count_kernel_calls(monkeypatch)
    partition_experiment(fam, 2, 8192, seed=7)
    assert calls == {"_member_tables": 1, "_contains_member": 256}


# --- partition experiment -------------------------------------------------------------


def _exact_mean_hit_classes(family, classes):
    # oracle: enumerate all classes^n assignments
    n = family.ground_size
    total = Fraction(0)
    for assignment in product(range(classes), repeat=n):
        masks = [0] * classes
        for element, cls in enumerate(assignment):
            masks[cls] |= 1 << element
        total += sum(1 for cm in masks if any(s & ~cm == 0 for s in family.sets))
    return total / classes**n


def test_partition_exact_oracle_two_singletons():
    fam = SetFamily(2, 1, [m(0), m(1)])
    assert _exact_mean_hit_classes(fam, 2) == Fraction(3, 2)
    stats = partition_experiment(fam, 2, trials=100_000, seed=7)
    assert abs(stats.mean_hit_classes - 1.5) < 0.01
    assert sum(stats.hit_class_histogram) == stats.trials


def test_partition_identity_matches_enumeration():
    # E[#hit classes] = t * Pr(hit at delta = 1/t), exactly
    rng = random.Random(4)
    for _ in range(10):
        fam = random_family(rng, n_max=6, k_max=3, size_max=5)
        for t in (2, 3):
            exact_mean = _exact_mean_hit_classes(fam, t)
            identity = t * exact_hit_probability(fam, 1 / t).p_hat
            assert abs(float(exact_mean) - identity) <= 1e-12


def test_partition_single_set_mean():
    # one k-set survives in a class iff all k elements chose it: mean t^(1-k)
    fam = SetFamily(6, 3, [m(0, 1, 2)])
    t = 4
    stats = partition_experiment(fam, t, trials=200_000, seed=9)
    expected = t ** (1 - 3)
    sigma = math.sqrt(expected * (1 - expected) / stats.trials)  # crude upper bound
    assert abs(stats.mean_hit_classes - expected) <= 4 * sigma + 1e-3


def test_partition_threshold_fractions_are_consistent():
    # each fraction is, by definition, its histogram tail over the trials; t = 7 and 40 exceed |F| = 4
    fam, _ = block_product_family(2, 2)
    for t in (2, 4, 7, 40):
        stats = partition_experiment(fam, t, trials=5_000, seed=2)
        hist = stats.hit_class_histogram
        fracs = stats.frac_trials_with_at_least
        assert fracs == {j: sum(hist[j:]) / stats.trials for j in range(1, t + 1)}, t
        assert list(fracs.values()) == sorted(fracs.values(), reverse=True)


def test_partition_mean_identity_block_family():
    fam, _ = block_product_family(2, 2)
    report = check_partition_mean_identity(fam, 4, trials=100_000, seed=1)
    assert report.expected_mean == pytest.approx(49 / 64, abs=1e-12)
    assert report.passed, (report.mean_hit_classes, report.expected_mean, report.sigma_mean)


def test_partition_mean_identity_single_set():
    # one k-set at t classes: expected mean is t * (1/t)^k = t^(1-k)
    fam = SetFamily(4, 3, [m(0, 1, 2)])
    report = check_partition_mean_identity(fam, 2, trials=50_000, seed=6)
    assert report.expected_mean == pytest.approx(2 ** (1 - 3), abs=1e-12)
    assert report.passed


def test_partition_mean_identity_needs_exact_path():
    fam = SetFamily(30, 1, [m(i) for i in range(25)])
    with pytest.raises(ValueError):
        check_partition_mean_identity(fam, 2, trials=10)


def test_partition_mean_identity_refuses_before_sampling(monkeypatch):
    fam, _ = block_product_family(2, 13)  # n = 26, |F| = 169: no exact path

    def sampled(*args, **kwargs):
        raise AssertionError("partition_experiment ran before the exact path was refused")

    monkeypatch.setattr(probability, "partition_experiment", sampled)
    with pytest.raises(ValueError, match="no exact path"):
        check_partition_mean_identity(fam, 2, trials=200_000)


@pytest.mark.parametrize("classes", [1, 0, -2])
def test_partition_mean_identity_rejects_fewer_than_two_classes(classes):
    with pytest.raises(ValueError, match="classes must be >= 2"):
        check_partition_mean_identity(SetFamily(4, 1, [m(0)]), classes, trials=10)


def _pinned_partition_cases():
    """(family, classes, seed, {trials: SHA-256 of the histogram as JSON}), computed
    while each class still had its own kernel call per 8,192-trial chunk; the
    smaller trial count is the one run under tiny tiles."""
    rng = random.Random(130)
    members = set()
    while len(members) < 65:
        members.add(m(*rng.sample(range(130), 3)))
    return [
        (block_product_family(2, 8)[0], 4, 1729, {  # the benchmark's partition op
            20_000: "4d9277ba90f3a5bc22c3f53d9d73505689342481e408ae5d9882362ffcc24b39",
            2_000: "4b3b1ef6f451ed113eaac19aaebcd30261829c1c4bfca74dd0b14eab956eb334"}),
        (block_product_family(2, 4)[0], 4, 11, {  # demo 04's histogram
            50_000: "ed55dd306ffda7f65fffb3f9d6ff5efeab459d622bf628b2a33e8a19a982c340",
            2_000: "f78f6e2264aa227beb4ad4ddc200959f65efbf2a9be5daf71fe570457f09f565"}),
        (SetFamily(130, 3, members), 3, 5, {
            20_000: "b49cfc8e7bb26617e6621142ec1d04dedeb39c74fc02a0db315f7a7b1dd624bb",
            300: "d4f83b05a346afb4d6d53e182932e3d5ff7538b460170f50004ec66b9a00db75"}),
        (SetFamily(1024, 2, [m(0, 1023), m(7, 8), m(500, 777)]), 3, 7, {
            8_192: "98556a649a2092fb8c01bfc8de4f658647bed8b58e3428411953a53fbeafa674",
            30: "5756bbab69f39d0988c99872a77132e97d5af12f9651497a940ec8d8fa68a3e3"}),
    ]


# a budget of 1 byte gives one-trial tiles, 3,000 bytes ragged tiles of up to 46 trials
@pytest.mark.parametrize("tile_bytes", [None, 1, 3000])
def test_partition_histograms_are_pinned(tile_bytes, monkeypatch):
    if tile_bytes is not None:
        monkeypatch.setattr(probability, "_KERNEL_TILE_BYTES", tile_bytes)
    for family, classes, seed, digests in _pinned_partition_cases():
        for trials, digest in digests.items() if tile_bytes is None else [min(digests.items())]:
            histogram = partition_experiment(family, classes, trials, seed=seed).hit_class_histogram
            assert hashlib.sha256(json.dumps(histogram).encode()).hexdigest() == digest, (family, trials)


def test_partition_memory_is_bounded_at_n_1024():
    # one 8,192-trial chunk of float64 uniforms and their product peaked at 128 MiB
    fam = SetFamily(1024, 2, [m(0, 1023), m(7, 8), m(500, 777)])
    fam.holders()
    tracemalloc.start()
    try:
        partition_experiment(fam, 3, 8192, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_counts_go_through_operator_index():
    fam = SetFamily(4, 2, [m(0, 1), m(2, 3)])
    for call in (
        lambda: BlockPartition(2.5, 3),
        lambda: BlockPartition(2, 3.0),
        lambda: exact_block_hit_probability(2.5, 3, 0.5),
        lambda: in_tightness_regime(2.5, 3, 0.1, 0.1),
        lambda: in_tightness_regime(2, 3.0, 0.1, 0.1),
        lambda: hit_threshold_sweep([2.5], 0.25),
        lambda: partition_experiment(fam, 2.0, 10),
        lambda: partition_experiment(fam, 2, 10.0),
    ):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        hit_threshold_sweep([0], 0.25)
    stats = partition_experiment(fam, np.int64(2), True)
    assert stats == partition_experiment(fam, 2, 1) and type(stats.classes) is type(stats.trials) is int
    part = BlockPartition(np.int64(2), np.uint8(3))
    assert part == BlockPartition(2, 3) and type(part.k) is type(part.r) is int
    assert hit_threshold_sweep([np.int64(2)], 0.25) == hit_threshold_sweep([2], 0.25)
    assert in_tightness_regime(np.int64(16), np.uint8(1), 0.5, 0.5)


# --- fixed-size decomposition -----------------------------------------------------------


def test_decomposition_block_2x2_default_cut():
    # default cut: m = ceil((delta/2) * n) = ceil(1) = 1; no single element
    # contains a 2-set, so the bound is the trivial 0 <= 9/16
    fam, _ = block_product_family(2, 2)
    report = check_fixed_size_decomposition(fam, 0.5)
    assert report.m == 1
    assert report.hit_probability == pytest.approx(9 / 16, abs=1e-15)
    assert report.fixed_size_hit_probability == 0.0
    assert report.passed and report.monotone_in_size


def test_decomposition_block_2x2_at_m2():
    # delta = 3/4 cuts at m = ceil(1.5) = 2, the informative cut: 4 of the 6
    # pairs are transversals, and Pr(Bin(4, 3/4) >= 2) = 243/256
    fam, _ = block_product_family(2, 2)
    report = check_fixed_size_decomposition(fam, 0.75)
    assert report.m == 2
    assert report.hit_probability == pytest.approx(225 / 256, abs=1e-15)
    assert report.fixed_size_hit_probability == pytest.approx(4 / 6, abs=1e-15)
    assert report.size_tail_probability == pytest.approx(243 / 256, abs=1e-15)
    assert report.lower_bound == 0.6328125 == (4 / 6) * (243 / 256)
    assert report.passed and report.monotone_in_size


def test_decomposition_empty_family():
    report = check_fixed_size_decomposition(SetFamily(6, 2, []), 0.25)
    assert report.hit_probability == 0.0 and report.passed


def test_decomposition_full_ground_member_boundary():
    # n = 1 forces m = n, where the bound collapses to equality
    fam = SetFamily(1, 1, [m(0)])
    report = check_fixed_size_decomposition(fam, 0.6)
    assert report.m == 1
    assert report.hit_probability == pytest.approx(0.6, abs=1e-15)
    assert report.lower_bound == pytest.approx(0.6, abs=1e-15)
    assert report.passed


def test_size_monotonicity():
    rng = random.Random(16)
    for _ in range(20):
        fam = random_family(rng, n_max=8)
        assert check_fixed_size_decomposition(fam, 0.5).monotone_in_size


def test_decomposition_random_families():
    rng = random.Random(23)
    for _ in range(25):
        fam = random_family(rng, n_max=8)
        for delta in (0.25, 0.5, 0.7):
            assert check_fixed_size_decomposition(fam, delta).passed


def test_decomposition_holds_at_cuts_1_to_3():
    fam, _ = block_product_family(2, 3)  # n = 6, so m = ceil(3 * delta)
    reports = [check_fixed_size_decomposition(fam, delta) for delta in (0.25, 0.5, 0.75)]
    assert [report.m for report in reports] == [1, 2, 3]
    assert all(report.passed for report in reports)


def test_decomposition_runs_up_to_the_enumeration_cap():
    fam, _ = block_product_family(6, 4)  # n = 24
    report = check_fixed_size_decomposition(fam, 0.5)
    assert report.passed
    assert abs(report.hit_probability - (1 - (1 - 0.5) ** 4) ** 6) < 1e-12
    with pytest.raises(ValueError, match="enumeration cap"):
        check_fixed_size_decomposition(block_product_family(5, 5)[0], 0.5)  # n = 25


def _decomposition_over_all_subsets(family, delta):
    # the report computed from counts over all 2^n subsets of the ground set, as before the support-first counts
    n = family.ground_size
    m_cut = math.ceil(Fraction(delta) / 2 * n)
    counts = hit_counts_by_size(family)
    lhs = probability._exact_sum(delta, ((int(c), j, n - j) for j, c in enumerate(counts)), n)
    by_size = [Fraction(int(counts[j]), math.comb(n, j)) for j in range(n + 1)]
    monotone = all(by_size[j] <= by_size[j + 1] for j in range(n))
    tail = probability._exact_sum(delta, ((math.comb(n, j), j, n - j) for j in range(m_cut, n + 1)), n)
    return probability.SizeDecompositionReport(
        delta=delta, m=m_cut, hit_probability=float(lhs), fixed_size_hit_probability=float(by_size[m_cut]),
        size_tail_probability=float(tail), lower_bound=float(by_size[m_cut] * tail), monotone_in_size=monotone,
        passed=bool(lhs >= by_size[m_cut] * tail and monotone),
    )


def test_decomposition_on_the_support_equals_counts_over_all_subsets():
    rng = random.Random(2727)
    families = [block_product_family(5, 4)[0], SetFamily(24, 2, [m(3, 20)]), SetFamily(9, 0, [0]), SetFamily(9, 3, [])]
    families += [random_family(rng, n_max=24, k_max=5, size_max=12) for _ in range(40)]
    for family in families:
        for delta in (0.25, 0.5, 0.625, 0.75, 0.9):
            assert check_fixed_size_decomposition(family, delta) == _decomposition_over_all_subsets(family, delta)


def test_decomposition_takes_any_n_up_to_the_exact_sum_cap():
    report = check_fixed_size_decomposition(SetFamily(25, 1, [m(0)]), 0.5)
    assert report.hit_probability == 0.5 and report.passed
    wide = SetFamily(CHERNOFF_TAIL_N_CAP, 2, [m(0, 7), m(7, CHERNOFF_TAIL_N_CAP - 1)])
    assert check_fixed_size_decomposition(wide, 0.5).hit_probability == 0.375
    n = CHERNOFF_TAIL_N_CAP + 1
    with pytest.raises(ValueError, match=re.escape(f"ground-set size {n} exceeds the exact-sum cap {CHERNOFF_TAIL_N_CAP}")):
        check_fixed_size_decomposition(SetFamily(n, 1, [m(0)]), 0.5)


# --- Chernoff tail -------------------------------------------------------------------------


def test_chernoff_16_half():
    report = check_chernoff_tail(16, 0.5)
    assert report.threshold == 4
    assert report.tail_probability == pytest.approx(2517 / 65536, abs=1e-15)
    assert report.bound == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert report.passed


def test_chernoff_single_draw():
    report = check_chernoff_tail(1, 0.5)
    assert report.tail_probability == pytest.approx(0.5, abs=1e-15)
    assert report.bound == pytest.approx(math.exp(-1 / 16), abs=1e-15)
    assert report.passed


def test_chernoff_tiny_delta_boundary():
    # as delta -> 0 both sides tend to 1 and the inequality survives:
    # (1-d)^n <= e^(-n d) <= e^(-n d / 8)
    report = check_chernoff_tail(32, 1e-9)
    assert report.threshold == 0
    assert report.tail_probability > 0.999999
    assert report.passed


def test_chernoff_validates():
    with pytest.raises(ValueError):
        check_chernoff_tail(0, 0.5)
    with pytest.raises(ValueError):
        check_chernoff_tail(4, 0.75)
    for n in (True, 16.0):
        with pytest.raises(ValueError, match="int"):
            check_chernoff_tail(n, 0.5)
    for n in (CHERNOFF_TAIL_N_CAP + 1, 100_000):  # the exact tail's cost grows like n^2.6
        with pytest.raises(ValueError, match="CHERNOFF_TAIL_N_CAP"):
            check_chernoff_tail(n, 0.3)
    assert check_chernoff_tail(CHERNOFF_TAIL_N_CAP, 0.5).passed


# --- threshold sweep -------------------------------------------------------------------------


def test_threshold_sweep_small():
    points = hit_threshold_sweep([2], delta=0.25)
    (pt,) = points
    # closed form: first r with (1-(3/4)^r)^2 >= 1/2 is r = 5
    assert pt.r_star == 5
    assert pt.tightness_floor == pytest.approx(math.log(4))


def _exact_block_hit(k, r, delta):
    return (1 - (1 - Fraction(delta)) ** r) ** k


def test_threshold_sweep_is_exact():
    points = hit_threshold_sweep([2, 4, 8, 16], delta=0.25)
    assert [pt.r_star for pt in points] == [5, 7, 9, 11]
    # k = 16 sits 0.0014 above 1/2 at r = 11, within Monte Carlo error at 50,000 trials
    for pt in points:
        below, at = (_exact_block_hit(pt.k, r, 0.25) for r in (pt.r_star - 1, pt.r_star))
        assert below < Fraction(1, 2) <= at and pt.p_hat == float(at)
    (tie,) = hit_threshold_sweep([1], delta=0.5)  # width 1 hits exactly 1/2, which counts as reaching it
    assert tie.r_star == 1 and tie.p_hat == 0.5
    # no width up to 64 reaches 1/2 at delta = 0.01: (1 - 0.99^64)^16 is about 6.58e-6
    (short,) = hit_threshold_sweep([16], delta=0.01)
    assert short.r_star is None and short.p_hat == float(_exact_block_hit(16, 64, 0.01))
    assert short.p_hat == pytest.approx(6.58e-6, rel=1e-3)
    for delta in (0.0, 1.0, -0.5):
        with pytest.raises(ValueError, match="delta"):
            hit_threshold_sweep([2], delta=delta)


BLOCK22 = block_product_family(2, 2)[0]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: exact_hit_probability(BLOCK22, 1.0), "delta must be in (0,1), got 1.0"),
        (lambda: exact_hit_probability(BLOCK22, 0.5, method="bogus"), "unknown exact method 'bogus'"),
        (lambda: exact_hit_probability(SetFamily(21, 1, [1 << e for e in range(21)]), 0.5,
                                       method="inclusion-exclusion"),
         "family size 21 exceeds inclusion-exclusion cap 20"),
        (lambda: mc_hit_probability(BLOCK22, 0.5, trials=0), "trials must be >= 1, got 0"),
        (lambda: mc_hit_probability(BLOCK22, 1.0, trials=10), "delta must be in (0,1), got 1.0"),
        (lambda: mc_block_hit_probability(2, 2, 0.5, trials=0), "trials must be >= 1, got 0"),
        (lambda: mc_block_hit_probability(2, 2, 0.0, trials=10), "delta must be in (0,1), got 0.0"),
        (lambda: partition_experiment(BLOCK22, 1, 10), "classes must be >= 2, got 1"),
        (lambda: partition_experiment(BLOCK22, 2, 0), "trials must be >= 1, got 0"),
        (lambda: check_partition_mean_identity(BLOCK22, 2, trials=1), "need trials >= 2"),
        (lambda: check_fixed_size_decomposition(BLOCK22, 1.0), "delta must be in (0,1), got 1.0"),
    ],
)
def test_invalid_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_numpy_integer_counts_give_python_fields():
    reports = [
        mc_hit_probability(BLOCK22, 0.5, np.int64(5)),
        mc_block_hit_probability(2, 2, 0.5, np.int64(5)),
        check_partition_mean_identity(BLOCK22, np.int64(2), np.int64(100)),
    ]
    assert type(reports[0].trials) is int and type(reports[1].trials) is int
    assert type(reports[2].classes) is int and type(reports[2].trials) is int
    assert type(reports[2].expected_mean) is float and type(reports[2].passed) is bool
    for report in reports:
        json.dumps(dataclasses.asdict(report))


@pytest.mark.parametrize("call", [
    lambda: mc_hit_probability(BLOCK22, 0.5, 2.5),
    lambda: mc_block_hit_probability(2, 2, 0.5, 2.5),
    lambda: check_partition_mean_identity(BLOCK22, 2.5, 100),
    lambda: check_partition_mean_identity(BLOCK22, 2, 100.0),
])
def test_fractional_counts_are_refused_before_any_work(monkeypatch, call):
    def no_work(*args, **kwargs):
        raise AssertionError("worked before checking the counts")

    for name in ("_member_tables", "bernoulli_block", "uniform_block", "exact_hit_probability"):
        monkeypatch.setattr(probability, name, no_work)
    with pytest.raises(TypeError):
        call()
