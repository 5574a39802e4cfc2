"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Statistical criteria run on fixed seeds, so the whole suite is reproducible
bit for bit.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they pass.
"""

import math
import random
import time

from sunflowers.bitset import mask_from_elements
from sunflowers.constructions import (
    block_product_family,
    exact_block_hit_probability,
    in_tightness_regime,
)
from sunflowers.extraction import ExtractionParams, _spread_case_search, extract_sunflower
from sunflowers.families import SetFamily, is_sunflower
from sunflowers.probability import (
    check_chernoff_tail,
    check_fixed_size_decomposition,
    check_partition_mean_identity,
    exact_hit_probability,
    hit_threshold_sweep,
    mc_hit_probability,
)
from sunflowers.rng import DEFAULT_SEED, STREAM_SPREAD_SEARCH
from sunflowers.spread import spread_witness, spreadness
from sunflowers.sunvalues import contains_sunflower, sun_value, verify_sunflower_free

FUZZ_SEED = 20_200_521


def m(*elements):
    return mask_from_elements(elements)


def _report(number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _grid_k_r(limit=16):
    return [(k, r) for k in range(1, limit + 1) for r in range(1, limit + 1) if k * r <= limit]


def test_criterion_1_exact_trivia():
    slowest = 0.0
    ok = True
    for k in range(1, 6):
        t0 = time.perf_counter()
        value = sun_value(2, k)
        slowest = max(slowest, time.perf_counter() - t0)
        ok = ok and value.exact == 2
    for p in range(2, 7):
        t0 = time.perf_counter()
        value = sun_value(p, 1)
        slowest = max(slowest, time.perf_counter() - t0)
        ok = ok and value.exact == p
    ok = ok and slowest < 1.0
    _report(1, ok, f"Sun(2,k)=2 for k<=5 and Sun(p,1)=p for p<=6, slowest call {slowest:.3f}s")


def test_criterion_2_sun_3_2():
    t0 = time.perf_counter()
    value = sun_value(3, 2)
    elapsed = time.perf_counter() - t0
    witness = value.search.witness
    triangles = SetFamily(6, 2, [m(0, 1), m(1, 2), m(0, 2), m(3, 4), m(4, 5), m(3, 5)])
    ok = (
        value.search.exhaustive
        and elapsed < 600
        and value.exact is not None
        and 4 < value.exact <= 9
        and len(witness) == value.exact - 1
        and verify_sunflower_free(witness, 3)
        and verify_sunflower_free(triangles, 3)  # certifies the lower bound >= 7
        and value.exact >= 7
    )
    _report(2, ok, f"Sun(3,2) = {value.exact} in {elapsed:.3f}s, witness of size {len(witness)} verified")


def test_criterion_3_block_families_exactly_r_spread():
    ok = True
    slowest = 0.0
    for k, r in _grid_k_r(16):
        family, _ = block_product_family(k, r)
        t0 = time.perf_counter()
        certified = spread_witness(family, float(r)).certified
        value = spreadness(family)
        slowest = max(slowest, time.perf_counter() - t0)
        ok = ok and certified
        if k >= 2:
            ok = ok and abs(value - r) <= 1e-9
        else:
            # a 1-uniform family has a degenerate spread profile: it is
            # 1-spread no matter the block width
            ok = ok and value == 1.0
        ok = ok and slowest < 1.0
    _report(
        3,
        ok,
        f"all k*r<=16 certified, spreadness == r +-1e-9 for k>=2 (k=1 degenerate), slowest {slowest:.3f}s",
    )


def test_criterion_4_tightness_chain():
    ok = True
    points = 0
    for k in (2, 4, 8, 16):
        for delta in (0.25, 0.5):
            for eps in (0.25, 0.5):
                for r in range(1, 65):
                    if not in_tightness_regime(k, r, delta, eps):
                        break
                    points += 1
                    hit = exact_block_hit_probability(k, r, delta)
                    e_linear = math.exp(-((1.0 - delta) ** r) * k)
                    e_double = math.exp(-math.exp(-2.0 * delta * r) * k)
                    e_sqrt = math.exp(-math.sqrt(eps * k))
                    ok = ok and hit <= e_linear < e_double <= e_sqrt < 1.0 - eps
                    ok = ok and hit < 1.0 - eps
    ok = ok and points > 0
    _report(4, ok, f"hit < 1-eps and every chain link holds at all {points} in-regime grid points")


def test_criterion_5_exact_vs_monte_carlo():
    family, _ = block_product_family(2, 2)
    enum = exact_hit_probability(family, 0.5, method="enumeration").p_hat
    incl = exact_hit_probability(family, 0.5, method="inclusion-exclusion").p_hat
    ok = enum == 0.5625 and incl == 0.5625 and abs(enum - incl) <= 1e-12
    tolerance = 3.0 * math.sqrt(0.5625 * 0.4375 / 100_000)
    within = 0
    for seed in range(100):
        estimate = mc_hit_probability(family, 0.5, trials=100_000, seed=seed)
        if abs(estimate.p_hat - 0.5625) <= tolerance:
            within += 1
    ok = ok and within >= 99
    _report(5, ok, f"both exact paths give 0.5625; {within}/100 seeds within 3 sigma = {tolerance:.4f}")


def test_criterion_6_partition_mean_identity():
    ok = True
    slowest = 0.0
    details = []
    for r in (2, 4, 8):
        family, _ = block_product_family(2, r)
        for classes in (4, 8):
            t0 = time.perf_counter()
            report = check_partition_mean_identity(family, classes, trials=100_000, seed=DEFAULT_SEED)
            elapsed = time.perf_counter() - t0
            slowest = max(slowest, elapsed)
            ok = ok and report.passed and elapsed < 10.0
            details.append(f"r={r},t={classes}:|dev|={report.deviation:.4f}<=3s={3 * report.sigma_mean:.4f}")
    _report(6, ok, f"6/6 points within 3 sigma, slowest {slowest:.2f}s; " + " ".join(details[:2]) + " ...")


def test_criterion_7_decomposition_and_chernoff():
    ok = True
    decompositions = 0
    for k, r in _grid_k_r(16):
        family, _ = block_product_family(k, r)
        for delta in (0.25, 0.5):
            ok = ok and check_fixed_size_decomposition(family, delta).passed
            decompositions += 1
    tails = 0
    for n in range(1, 65):
        for delta in (0.125, 0.25, 0.5):
            ok = ok and check_chernoff_tail(n, delta).passed
            tails += 1
    _report(7, ok, f"{decompositions} exact decompositions and {tails} exact binomial tails all hold")


def test_criterion_8_extraction_soundness_fuzz():
    rng = random.Random(FUZZ_SEED)
    sound = True
    agree = True
    oracle_hits = 0
    successes = 0
    for _ in range(10_000):
        n = rng.randint(2, 16)
        k = rng.randint(1, min(4, n))
        p = rng.randint(2, 4)
        target = rng.randint(1, 12)
        sets = set()
        for _ in range(200):
            if len(sets) == target:
                break
            sets.add(m(*rng.sample(range(n), k)))
        family = SetFamily(n, k, sets)
        trace = extract_sunflower(family, ExtractionParams(p=p, seed=rng.randrange(2**63)))
        if trace.succeeded:
            successes += 1
            flower = is_sunflower(trace.sunflower.petals)
            sound = sound and flower is not None and flower.core == trace.sunflower.core
            sound = sound and len(trace.sunflower.petals) == p
            sound = sound and all(petal in family.sets for petal in trace.sunflower.petals)
        if len(family) >= p and contains_sunflower(family.sets, p):
            oracle_hits += 1
            agree = agree and trace.succeeded
    ok = sound and agree and successes == oracle_hits
    _report(
        8,
        ok,
        f"10000 families fuzzed: every returned sunflower verifies; "
        f"extraction matched the exhaustive oracle on all {oracle_hits} solvable instances",
    )


def test_criterion_9_spread_case_engine():
    family, _ = block_product_family(4, 16)
    successes = sum(
        1
        for seed in range(100)
        if _spread_case_search(family, 4, 2, 10, seed, STREAM_SPREAD_SEARCH)[0] is not None
    )
    per_class = exact_block_hit_probability(4, 16, 0.25)
    ok = successes >= 99 and abs(per_class - 0.9605) < 1e-3
    _report(9, ok, f"{successes}/100 seeds succeed within 10 trials (per-class hit {per_class:.4f})")


def test_criterion_10_threshold_scaling_sweep():
    t0 = time.perf_counter()
    delta = 0.25
    points = hit_threshold_sweep([2, 4, 8, 16], delta=delta)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 300
    fitted = 0.0
    summary = []
    for pt in points:
        ok = ok and pt.r_star is not None
        scale = (1.0 / delta) * math.log(2 * pt.k)
        ok = ok and pt.tightness_floor <= pt.r_star
        fitted = max(fitted, pt.r_star / scale)
        summary.append(f"k={pt.k}:r*={pt.r_star}")
    ok = ok and fitted <= 8.0
    _report(
        10,
        ok,
        f"{' '.join(summary)}; fitted c = {fitted:.2f} <= 8 against c/delta*ln(2k), {elapsed:.1f}s",
    )
