import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sunflowers import probability
from sunflowers.bitset import mask_from_elements
from sunflowers.constructions import block_product_family
from sunflowers.families import SetFamily
from sunflowers.probability import (
    check_chernoff_tail,
    check_fixed_size_decomposition,
    check_partition_mean_identity,
    clopper_pearson,
    exact_hit_probability,
    hit_indicator_table,
    hit_threshold_sweep,
    mc_block_hit_probability,
    mc_hit_probability,
    partition_experiment,
)
from sunflowers.rng import STREAM_BERNOULLI, STREAM_PARTITION, uniform_block


def m(*elements):
    return mask_from_elements(elements)


def random_family(rng, n_max=10, k_max=4, size_max=10):
    n = rng.randint(2, n_max)
    k = rng.randint(1, min(k_max, n))
    all_ksets = [m(*c) for c in combinations(range(n), k)]
    size = rng.randint(0, min(size_max, len(all_ksets)))
    return SetFamily(n, k, rng.sample(all_ksets, size))


# --- exact hit probability ---------------------------------------------------------


def test_hit_table_marks_supersets():
    fam = SetFamily(3, 2, [m(0, 1)])
    table = hit_indicator_table(fam)
    assert [int(x) for x in table] == [0, 0, 0, 1, 0, 0, 0, 1]


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
            assert abs(a - b) <= 1e-12


def test_exact_monotone_in_delta():
    fam, _ = block_product_family(2, 2)
    values = [exact_hit_probability(fam, d).p_hat for d in np.linspace(0.05, 0.95, 19)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_exact_wide_ground_uses_inclusion_exclusion():
    # ground too wide for enumeration: IE still works
    fam = SetFamily(70, 2, [m(0, 1), m(68, 69)])
    est = exact_hit_probability(fam, 0.5)
    assert est.method == "inclusion-exclusion"
    # two disjoint pairs: 2 d^2 - d^4
    assert est.p_hat == pytest.approx(2 * 0.25 - 0.0625, abs=1e-14)


def test_exact_caps_enforced():
    fam = SetFamily(30, 1, [m(i) for i in range(25)])
    with pytest.raises(ValueError):
        exact_hit_probability(fam, 0.5)


# --- Monte Carlo --------------------------------------------------------------------


def test_mc_lands_within_3_sigma_of_exact():
    fam, _ = block_product_family(2, 2)
    est = mc_hit_probability(fam, 0.5, trials=100_000, seed=0)
    assert abs(est.p_hat - 9 / 16) <= est.half_width_3sigma
    assert est.method == "monte-carlo" and est.trials == 100_000


def test_mc_thread_count_is_invisible():
    fam, _ = block_product_family(2, 3)
    a = mc_hit_probability(fam, 0.3, trials=20_001, seed=5, threads=1)
    b = mc_hit_probability(fam, 0.3, trials=20_001, seed=5, threads=4)
    assert a == b


def test_mc_block_form_matches_materialized_family():
    fam, _ = block_product_family(3, 2)
    a = mc_hit_probability(fam, 0.4, trials=9_999, seed=11)
    b = mc_block_hit_probability(3, 2, 0.4, trials=9_999, seed=11)
    assert a.p_hat == b.p_hat


def test_mc_tiny_probability():
    fam = SetFamily(8, 8, [m(*range(8))])
    est = mc_hit_probability(fam, 0.05, trials=2_000, seed=3)
    assert est.p_hat == 0.0
    lo, hi = clopper_pearson(0, 2_000)
    assert lo == 0.0 and 0 < hi < 0.01


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
    widths = {probability._group_width(n, -(-size // 64), trials)
              for n, size in WORD_BOUNDARY_CASES for trials in KERNEL_TRIALS}
    assert widths == set(range(1, 9))


@pytest.mark.parametrize("trials", KERNEL_TRIALS)
@pytest.mark.parametrize("n,size", WORD_BOUNDARY_CASES)
def test_mc_hits_match_python_oracle_across_word_boundary(n, size, trials, kernel_tiles):
    fam = wide_family(n, size)
    delta, seed = 0.3, 17
    bits = uniform_block(seed, STREAM_BERNOULLI, 0, trials, n) < delta
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
    assert probability._contains_member(fam, bits).tolist() == expected


def test_group_width_rule():
    width = probability._group_width
    assert width(64, 2048, 8192) == 1  # two-element tables would exceed the budget
    assert width(24, 8, 8192) == 8  # block(3,8) at a full chunk
    assert width(64, 1024, 32) == 2  # block(4,16) at 32 trials: tables cost more than trials
    for n, words, trials in product((1, 9, 30, 64, 130), (0, 1, 122, 1024, 4096), (1, 32, 8192)):
        w = width(n, words, trials)
        assert w == 1 or -(-n // w) * (words << w) * 8 <= probability._KERNEL_TILE_BYTES


def test_mc_thread_count_is_invisible_at_n64():
    fam = wide_family(64, 70)
    a = mc_hit_probability(fam, 0.3, trials=20_001, seed=5, threads=1)
    b = mc_hit_probability(fam, 0.3, trials=20_001, seed=5, threads=4)
    assert a == b


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


def test_kernel_tables_stay_within_the_tile_budget_on_block_4_16():
    # 65,536 members in 1,024 words, n = 64, a full chunk of trials
    fam, _ = block_product_family(4, 16)
    words, budget = fam.holders().shape[1], probability._KERNEL_TILE_BYTES
    w = probability._group_width(64, words, 8192)
    assert w > 1 and -(-64 // w) * (words << w) * 8 <= budget
    bits = uniform_block(1, STREAM_BERNOULLI, 0, 8192, 64) < 0.125
    tracemalloc.start()
    try:
        hits = probability._contains_member(fam, bits)
        _, kernel_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        mc_hit_probability(fam, 0.125, trials=8192, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a sample contains a transversal iff it meets every block
    assert hits.tolist() == bits.reshape(8192, 4, 16).any(axis=2).all(axis=1).tolist()
    # the tables, the alive tile and the gathered rows take one budget each
    assert kernel_peak < 4 * budget
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


def test_clopper_pearson_brackets_the_estimate():
    lo, hi = clopper_pearson(56, 100)
    assert lo < 0.56 < hi
    est = mc_hit_probability(
        block_product_family(2, 2)[0], 0.5, trials=1_000, seed=1, interval="clopper-pearson"
    )
    assert est.ci_low is not None and est.ci_low <= est.p_hat <= est.ci_high


def test_unknown_interval_is_rejected_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking the interval")

    monkeypatch.setattr(probability, "_mc_hits_chunk", no_sampling)
    with pytest.raises(ValueError, match="interval"):
        mc_hit_probability(block_product_family(3, 8)[0], 0.5, trials=200_000, interval="bogus")


@pytest.mark.parametrize("threads", [0, -3])
def test_mc_rejects_thread_counts_below_one(threads):
    with pytest.raises(ValueError, match="threads"):
        mc_hit_probability(block_product_family(2, 2)[0], 0.5, trials=100, threads=threads)


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
    fam, _ = block_product_family(2, 2)
    stats = partition_experiment(fam, 4, trials=5_000, seed=2)
    fracs = stats.frac_trials_with_at_least
    assert fracs[1] >= fracs[2] >= fracs[3] >= fracs[4]
    hist = stats.hit_class_histogram
    assert fracs[1] == pytest.approx(sum(hist[1:]) / stats.trials)


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
    # the informative cut: 4 of the 6 pairs are transversals, and
    # Pr(Bin(4, 1/2) >= 2) = 11/16
    fam, _ = block_product_family(2, 2)
    report = check_fixed_size_decomposition(fam, 0.5, m=2)
    assert report.hit_probability == pytest.approx(9 / 16, abs=1e-15)
    assert report.fixed_size_hit_probability == pytest.approx(4 / 6, abs=1e-15)
    assert report.size_tail_probability == pytest.approx(11 / 16, abs=1e-15)
    assert report.lower_bound == pytest.approx((4 / 6) * (11 / 16), abs=1e-15)
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


def test_decomposition_holds_at_every_cut():
    fam, _ = block_product_family(2, 3)
    for delta in (0.25, 0.5):
        for m in range(fam.ground_size + 1):
            assert check_fixed_size_decomposition(fam, delta, m=m).passed


def test_decomposition_runs_up_to_the_enumeration_cap():
    fam, _ = block_product_family(6, 4)  # n = 24
    report = check_fixed_size_decomposition(fam, 0.5)
    assert report.passed
    assert abs(report.hit_probability - (1 - (1 - 0.5) ** 4) ** 6) < 1e-12
    with pytest.raises(ValueError, match="enumeration cap"):
        check_fixed_size_decomposition(block_product_family(5, 5)[0], 0.5)  # n = 25


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


def test_chernoff_rate_condition():
    # r past 16/delta * ln(1/eps) forces e^(-r delta/8) <= eps^2
    report = check_chernoff_tail(8, 0.5, r=23.0, eps=0.5)
    assert report.rate_condition_applies and report.rate_bound_ok and report.passed
    report = check_chernoff_tail(8, 0.5, r=1.0, eps=0.5)
    assert report.rate_condition_applies is False and report.passed


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
    for half in ({"r": 10.0}, {"eps": 0.5}):  # the rate check needs both
        with pytest.raises(ValueError, match="together"):
            check_chernoff_tail(16, 0.5, **half)
    for r in (math.nan, math.inf, -math.inf):  # NaN would skip the rate check as not applying
        with pytest.raises(ValueError, match="finite"):
            check_chernoff_tail(16, 0.5, r=r, eps=0.5)


# --- threshold sweep -------------------------------------------------------------------------


def test_threshold_sweep_small():
    points = hit_threshold_sweep([2], delta=0.25, trials=20_000, seed=1)
    (pt,) = points
    # closed form: first r with (1-(3/4)^r)^2 >= 1/2 is r = 5
    assert pt.r_star in (5, 6)
    assert pt.tightness_floor == pytest.approx(math.log(4))
