import json
import math
import random
import tracemalloc
from itertools import combinations

import pytest

from sunflowers import probability
from sunflowers.bitset import elements_of, mask_from_elements
from sunflowers.constructions import block_product_family, erdos_rado_family
from sunflowers.extraction import (
    ExtractionParams,
    LinkCase,
    brute_force_sunflower,
    extract_sunflower,
    generalized_disjoint_search,
    r_threshold,
    _spread_case_search,
)
from sunflowers.families import SetFamily, is_sunflower
from sunflowers.rng import STREAM_GENERALIZED, STREAM_SPREAD_SEARCH, uniform_block
from sunflowers.spread import superset_count
from sunflowers.sunvalues import contains_sunflower


def m(*elements):
    return mask_from_elements(elements)


def star(leaves, hub=0):
    return SetFamily(leaves + 1, 2, [m(hub, i) for i in range(1, leaves + 1)])


# --- r_threshold -----------------------------------------------------------------


def test_threshold_base_case_is_p():
    for c in (1.0, 4.0, 9.0):
        assert r_threshold(3, 1, c) == 3.0


def test_threshold_values():
    assert r_threshold(2, 2, 4.0) == pytest.approx(8 * math.log(2), abs=1e-12)
    assert r_threshold(2, 4, 4.0) == pytest.approx(8 * math.log(4), abs=1e-12)
    assert r_threshold(2, 4, 4.0) > r_threshold(2, 2, 4.0)


def test_threshold_monotone_in_k_for_c_at_least_4():
    # the recursion needs r(p, k') <= r(p, k) for k' <= k, including k' = 1
    for p in (2, 3, 5):
        for c in (4.0, 6.0):
            values = [r_threshold(p, k, c) for k in range(1, 12)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_threshold_validates():
    with pytest.raises(ValueError):
        r_threshold(1, 2)
    with pytest.raises(ValueError):
        r_threshold(2, 0)
    with pytest.raises(ValueError):
        r_threshold(2, 2, 0.0)


# --- extract_sunflower -------------------------------------------------------------


def test_extract_disjoint_family():
    fam = SetFamily(6, 2, [m(0, 1), m(2, 3), m(4, 5)])
    trace = extract_sunflower(fam, ExtractionParams(p=3))
    assert trace.succeeded
    assert trace.sunflower.core == 0 and len(trace.sunflower.petals) == 3


def test_extract_star_finds_nonempty_core_via_fallback():
    # no 3 disjoint members exist, but {0,1},{0,2},{0,3} share core {0};
    # oracle: the exhaustive scan sees it too
    fam = star(5)
    assert contains_sunflower(fam.sets, 3)
    trace = extract_sunflower(fam, ExtractionParams(p=3))
    assert trace.succeeded and trace.fallback_used
    assert trace.sunflower.core == m(0)
    assert all(petal in fam.sets for petal in trace.sunflower.petals)


def test_extract_erdos_rado_fails_honestly():
    fam = erdos_rado_family(3, 2)
    trace = extract_sunflower(fam, ExtractionParams(p=3))
    assert not trace.succeeded
    assert trace.sunflower is None
    assert len(trace.steps) >= 1  # the trace documents what was tried


def test_extract_without_fallback_on_star():
    trace = extract_sunflower(star(5), ExtractionParams(p=3, use_fallback=False))
    assert not trace.succeeded and not trace.fallback_used


def test_extract_k1_base_case():
    fam = SetFamily(5, 1, [m(0), m(1), m(2)])
    trace = extract_sunflower(fam, ExtractionParams(p=3))
    assert trace.succeeded and trace.sunflower.petals == (m(0), m(1), m(2))
    small = SetFamily(5, 1, [m(0)])
    assert not extract_sunflower(small, ExtractionParams(p=2)).succeeded


def test_link_case_fires_and_reattaches():
    # 8 members through element 0 beat the threshold 8*ln(2) at p = 2, so
    # the recursion strips {0} and works on singletons
    fam = star(8)
    trace = extract_sunflower(fam, ExtractionParams(p=2))
    assert trace.succeeded
    link_steps = [s for s in trace.steps if isinstance(s, LinkCase)]
    assert link_steps and link_steps[0].t == m(0)
    # the recorded count self-verifies
    assert link_steps[0].count == superset_count(fam, link_steps[0].t) == 8
    # petals carry the re-attached core
    assert trace.sunflower.core == m(0)
    assert all(petal in fam.sets for petal in trace.sunflower.petals)


def test_extract_respects_r_override():
    # pinning r low forces the link case even on a small star
    trace = extract_sunflower(star(3), ExtractionParams(p=2, r_override=1.5))
    kinds = [type(s) for s in trace.steps]
    assert LinkCase in kinds
    assert trace.succeeded


def test_params_validate():
    with pytest.raises(ValueError):
        ExtractionParams(p=1)
    with pytest.raises(ValueError):
        ExtractionParams(p=2, C=0.5)
    with pytest.raises(ValueError):
        ExtractionParams(p=2, r_override=0.5)
    for knob in ("C", "r_override"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{knob} must be finite"):
                ExtractionParams(p=2, **{knob: value})
    assert ExtractionParams(p=3).partition_trials == 192


def test_trace_json_roundtrip():
    trace = extract_sunflower(star(5), ExtractionParams(p=3))
    data = json.loads(json.dumps(trace.to_dict()))
    assert data["p"] == 3 and data["sunflower"]["core"] == [0]
    assert data["schema_version"] == 1
    kinds = {step["kind"] for step in data["steps"]}
    assert kinds <= {"link", "spread"}


# --- soundness fuzz (small here; the full run lives in the acceptance suite) --------


def test_extraction_soundness_fuzz_small():
    rng = random.Random(1234)
    for _ in range(300):
        n = rng.randint(2, 12)
        k = rng.randint(1, min(4, n))
        all_ksets = [m(*c) for c in combinations(range(n), k)]
        fam = SetFamily(n, k, rng.sample(all_ksets, min(rng.randint(1, 10), len(all_ksets))))
        p = rng.randint(2, 4)
        trace = extract_sunflower(fam, ExtractionParams(p=p, seed=rng.randrange(2**32)))
        if trace.succeeded:
            flower = is_sunflower(trace.sunflower.petals)
            assert flower is not None and flower.core == trace.sunflower.core
            assert len(trace.sunflower.petals) == p
            assert all(petal in fam.sets for petal in trace.sunflower.petals)
        if len(fam) >= p and contains_sunflower(fam.sets, p):
            assert trace.succeeded


# --- _spread_case_search ----------------------------------------------------------------


def test_spread_case_search_on_wide_block_family():
    fam, _ = block_product_family(4, 16)
    petals = _spread_case_search(fam, 4, 2, 10, 0, STREAM_SPREAD_SEARCH)[0]
    assert petals is not None
    assert petals[0] & petals[1] == 0
    assert all(p in fam.sets for p in petals)


def test_spread_case_search_fails_when_no_disjoint_pair():
    fam = star(6)
    assert _spread_case_search(fam, 4, 2, 50, 0, STREAM_SPREAD_SEARCH)[0] is None


def test_spread_case_search_two_disjoint_pairs():
    fam = SetFamily(4, 2, [m(0, 1), m(2, 3)])
    petals = _spread_case_search(fam, 4, 2, 64, 0, STREAM_SPREAD_SEARCH)[0]
    assert petals is not None and petals[0] & petals[1] == 0


def test_spread_case_output_is_always_disjoint():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(4, 12)
        all_pairs = [m(*c) for c in combinations(range(n), 2)]
        fam = SetFamily(n, 2, rng.sample(all_pairs, min(8, len(all_pairs))))
        petals = _spread_case_search(fam, 4, 2, 16, rng.randrange(2**20), STREAM_SPREAD_SEARCH)[0]
        if petals is not None:
            assert petals[0] & petals[1] == 0


def _per_trial_search(family, classes, need, trials, seed, stream):
    """The search as a loop over trials: partition the ground set into
    ``classes`` classes, take each class's smallest member inside it, stop at
    the first trial with at least ``need`` such members."""
    if trials < 1:
        return None, 0
    uniforms = uniform_block(seed, stream, 0, trials, family.ground_size)
    for trial in range(trials):
        cls = (uniforms[trial] * classes).astype(int).tolist()
        petals = []
        for c in range(classes):
            inside = [s for s in family.sets if all(cls[e] == c for e in elements_of(s))]
            petals += inside[:1]
        if len(petals) >= need:
            return petals, trial + 1
    return None, trials


def _oracle_families(n):
    """(k, |F|) = (1, 12), the empty member, |F| = 0 and 1, then random shapes."""
    rng = random.Random(n)
    shapes = [(1, 12), (0, 1), (2, 0), (1, 1), (min(3, n), 1)]
    shapes += [(rng.randint(1, min(4, n)), rng.randint(2, 40)) for _ in range(4)]
    for k, size in shapes:
        yield SetFamily(n, k, {m(*rng.sample(range(n), k)) for _ in range(size)}), rng


_ORACLE_GROUND_SIZES = [*range(2, 17), 63, 64, 65, 130]


@pytest.mark.parametrize("tile_bytes", [None, 1, 100])
@pytest.mark.parametrize("n", _ORACLE_GROUND_SIZES)
def test_spread_case_search_matches_per_trial_loop(n, tile_bytes, monkeypatch):
    if tile_bytes is not None:  # one trial per tile, or ragged tiles of a few trials
        monkeypatch.setattr(probability, "_KERNEL_TILE_BYTES", tile_bytes)
    for fam, rng in _oracle_families(n):
        p = rng.randint(2, 4)
        seed = rng.randrange(2**32)
        for trials in (0, 1, 64 * p):
            expected = _per_trial_search(fam, 2 * p, p, trials, seed, STREAM_SPREAD_SEARCH)
            got = _spread_case_search(fam, 2 * p, p, trials, seed, STREAM_SPREAD_SEARCH)
            assert got == expected, (fam.sets, p)


@pytest.mark.parametrize("tile_bytes", [None, 1, 100])
@pytest.mark.parametrize("n", _ORACLE_GROUND_SIZES)
def test_generalized_search_matches_per_trial_loop(n, tile_bytes, monkeypatch):
    if tile_bytes is not None:
        monkeypatch.setattr(probability, "_KERNEL_TILE_BYTES", tile_bytes)
    for fam, rng in _oracle_families(n):
        seed = rng.randrange(2**32)
        for delta in (1 / 2, 0.3, 1 / 5, 1 / 10):
            classes = math.floor(1 / delta)
            expected, _ = _per_trial_search(fam, classes, 0, 1, seed, STREAM_GENERALIZED)
            result = generalized_disjoint_search(fam, delta, 0.5, seed=seed)
            assert result.sets == tuple(expected), (fam.sets, delta)
            assert result.hit_classes == len(expected)


def test_spread_case_search_memory_is_bounded():
    fam, _ = block_product_family(4, 16)  # 65,536 members: 64 MB of class ids for 256 trials untiled
    tracemalloc.start()
    try:
        petals, _ = _spread_case_search(fam, 4, 2, 256, 0, STREAM_SPREAD_SEARCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert petals is not None
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


# --- generalized partition search --------------------------------------------------------


def test_generalized_search_halves():
    fam = SetFamily(4, 2, [m(0, 1), m(2, 3)])
    result = generalized_disjoint_search(fam, delta=0.5, eps=0.5, seed=3)
    assert result.classes == 2
    assert result.hit_classes == len(result.sets)
    for a, b in combinations(result.sets, 2):
        assert a & b == 0


def test_generalized_search_empty_family():
    result = generalized_disjoint_search(SetFamily(4, 2, []), 0.5, 0.5)
    assert result.sets == () and not result.threshold_exceeded


def test_generalized_search_block_family():
    fam, _ = block_product_family(2, 8)
    result = generalized_disjoint_search(fam, delta=0.25, eps=0.5, seed=0)
    assert result.classes == 4
    assert result.required == pytest.approx(2.0)
    assert result.threshold_exceeded == (result.hit_classes > 2)
    for a, b in combinations(result.sets, 2):
        assert a & b == 0


def test_generalized_search_validates():
    fam = SetFamily(4, 2, [m(0, 1)])
    with pytest.raises(ValueError):
        generalized_disjoint_search(fam, 0.6, 0.5)
    with pytest.raises(ValueError):
        generalized_disjoint_search(fam, 0.5, 0.0)


# --- brute-force fallback ------------------------------------------------------------------


def test_brute_force_matches_exhaustive_oracle():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(3, n))
        all_ksets = [m(*c) for c in combinations(range(n), k)]
        fam = SetFamily(n, k, rng.sample(all_ksets, min(rng.randint(1, 9), len(all_ksets))))
        p = rng.randint(2, 4)
        found = brute_force_sunflower(fam, p)
        assert (found is not None) == contains_sunflower(fam.sets, p)
        if found is not None:
            assert is_sunflower(found.petals).core == found.core


def test_brute_force_respects_cap():
    fam, _ = block_product_family(2, 4)
    assert brute_force_sunflower(fam, 2, cap=0) is None


def test_negative_fallback_cap_is_rejected():
    fam, _ = block_product_family(2, 4)
    with pytest.raises(ValueError):
        brute_force_sunflower(fam, 2, cap=-1)
    with pytest.raises(ValueError):
        ExtractionParams(p=2, fallback_bruteforce_cap=-5)


@pytest.mark.parametrize("trials", [-3, 2.5, True])
def test_bad_partition_trials_are_rejected(trials):
    with pytest.raises(ValueError, match="max_partition_trials"):
        ExtractionParams(p=2, max_partition_trials=trials)


@pytest.mark.parametrize("cap", [0.5, 1.0, True, "3"])
def test_non_int_fallback_cap_is_rejected(cap):
    fam, _ = block_product_family(2, 4)
    with pytest.raises(ValueError, match="cap"):
        brute_force_sunflower(fam, 2, cap=cap)
    with pytest.raises(ValueError, match="fallback_bruteforce_cap"):
        ExtractionParams(p=2, fallback_bruteforce_cap=cap)


def _budgeted_search_oracle(sets, p, cap):
    """The fallback's search with its own inline backtracker: the same cores
    in the same order, one budget step per candidate tried."""
    if len(sets) < p:
        return None
    cores = {sets[i] & sets[j] for i in range(len(sets)) for j in range(i + 1, len(sets))}
    budget = [cap if cap is not None else -1]

    def spend():
        if budget[0] == 0:
            return False
        if budget[0] > 0:
            budget[0] -= 1
        return True

    for core in sorted(cores, key=lambda x: (x.bit_count(), x)):
        stripped = [x & ~core for x in sets if x & core == core]
        chosen = []

        def recurse(start, used):
            if len(chosen) == p:
                return True
            for j in range(start, len(stripped)):
                if not spend():
                    return False
                s = stripped[j]
                if used & s:
                    continue
                chosen.append(s)
                if recurse(j + 1, used | s):
                    return True
                chosen.pop()
            return False

        if recurse(0, 0):
            return core, tuple(s | core for s in chosen)
        if budget[0] == 0:
            return None
    return None


def test_brute_force_cap_matches_budgeted_oracle():
    rng = random.Random(2024)
    decided = 0
    for _ in range(100):
        n = rng.randint(3, 9)
        k = rng.randint(1, min(3, n))
        all_ksets = [m(*c) for c in combinations(range(n), k)]
        fam = SetFamily(n, k, rng.sample(all_ksets, min(rng.randint(2, 14), len(all_ksets))))
        p = rng.randint(2, 4)
        outcomes = set()
        for cap in [*range(61), None]:
            found = brute_force_sunflower(fam, p, cap=cap)
            expected = _budgeted_search_oracle(fam.sets, p, cap)
            assert (None if found is None else (found.core, found.petals)) == expected, (fam.sets, p, cap)
            outcomes.add(found is None)
        decided += len(outcomes) == 2
    assert decided > 40  # on most families a larger cap finds a sunflower that a smaller one misses
