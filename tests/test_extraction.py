import hashlib
import json
import math
import random
import re
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sunflowers import extraction, probability
from sunflowers.bitset import elements_of, mask_from_elements
from sunflowers.constructions import block_product_family, erdos_rado_family
from sunflowers.extraction import (
    ExtractionParams,
    LinkCase,
    SpreadCase,
    brute_force_sunflower,
    extract_sunflower,
    generalized_disjoint_search,
    r_threshold,
    _spread_case_search,
)
from sunflowers.families import (
    SetFamily,
    Sunflower,
    family_from_dict,
    family_to_dict,
    find_disjoint_sets,
    is_sunflower,
    link,
)
from sunflowers.probability import partition_experiment
from sunflowers.rng import STREAM_GENERALIZED, STREAM_PARTITION, STREAM_SPREAD_SEARCH, uniform_block
from sunflowers.spread import superset_count
from sunflowers.sunvalues import contains_sunflower, max_sunflower_free


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
    # p and k are counts, and C is checked as ExtractionParams checks it
    for p in (2.5, 2.0):
        with pytest.raises(TypeError):
            r_threshold(p, 2)
        with pytest.raises(TypeError):
            ExtractionParams(p=p)
    with pytest.raises(TypeError):
        r_threshold(2, 2.5)
    for C in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"C must be finite and >= 1, got {C}")):
            r_threshold(2, 2, C)
        with pytest.raises(ValueError, match=re.escape(f"C must be finite and >= 1, got {C}")):
            ExtractionParams(p=2, C=C)
    assert r_threshold(np.int64(2), np.int64(4)) == r_threshold(2, 4)
    # C * p passes the float range, C * p * ln(2) does not; C * p * ln(3) does
    assert r_threshold(2, 2, 1e308) == 1e308 * (2 * math.log(2))
    message = "C must be small enough for a finite spread threshold C*p*ln(k), got C=1e+308"
    with pytest.raises(ValueError, match=re.escape(message)):
        r_threshold(2, 3, 1e308)
    # a p past the float range is refused by name at every k; one inside it is not
    for k in (1, 2):
        with pytest.raises(ValueError, match="p must be within the float range .* got a 1329-bit p"):
            r_threshold(10**400, k)
    assert r_threshold(2**70, 2) == 4.0 * 2**70 * math.log(2)


def test_threshold_overflow_names_its_cause_by_size():
    # p*ln(8) alone passes the float range: p is refused, named by its bit length
    with pytest.raises(ValueError, match=re.escape("p must be small enough for a finite p*ln(k), got a 1024-bit p at k=8")):
        r_threshold(2**1023, 8)
    # p*ln(2) is finite, so C = 4 is refused; p's 308 digits are not printed
    message = "C must be small enough for a finite spread threshold C*p*ln(k), got C=4.0 at p*ln(k)=6.23033e+307"
    with pytest.raises(ValueError) as refusal:
        r_threshold(2**1023, 2)
    assert str(refusal.value) == message
    assert r_threshold(2**1023, 2, 1.0) == 2**1023 * math.log(2)


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
    trace = extract_sunflower(star(5), ExtractionParams(p=3, fallback_bruteforce_cap=0))
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


def test_small_C_forces_the_link_case():
    # at C = 1, r = 2*ln(2) < 3: element 0 of a 3-star is stripped
    trace = extract_sunflower(star(3), ExtractionParams(p=2, C=1))
    kinds = [type(s) for s in trace.steps]
    assert LinkCase in kinds
    assert trace.succeeded


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, "3"])
def test_non_integer_petal_counts_raise_type_error(p):
    fam = SetFamily(6, 2, [m(0, 1), m(2, 3), m(4, 5)])
    for call in (
        lambda: find_disjoint_sets([1, 2, 4], p),
        lambda: brute_force_sunflower(fam, p),
        lambda: max_sunflower_free(p, 2),
        lambda: ExtractionParams(p=p),
        lambda: contains_sunflower([1, 2, 4], p),
        lambda: erdos_rado_family(p, 2),
    ):
        with pytest.raises(TypeError):
            call()


def test_numpy_integer_petal_counts_work():
    fam = SetFamily(6, 2, [m(0, 1), m(2, 3), m(4, 5)])
    assert find_disjoint_sets([1, 2, 4], np.int64(3)) == [1, 2, 4]
    assert brute_force_sunflower(fam, np.int64(3)) == brute_force_sunflower(fam, 3)
    params = ExtractionParams(p=np.int64(3))
    assert params == ExtractionParams(p=3) and type(params.p) is int
    search = max_sunflower_free(np.int64(3), 2, ground_cap=4)
    assert type(search.p) is int and search.max_size == max_sunflower_free(3, 2, ground_cap=4).max_size


def test_params_validate():
    with pytest.raises(ValueError):
        ExtractionParams(p=1)
    with pytest.raises(ValueError):
        ExtractionParams(p=2, C=0.5)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="C must be finite"):
            ExtractionParams(p=2, C=value)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be in"):
            ExtractionParams(p=2, seed=seed)
    assert ExtractionParams(p=3).partition_trials == 192


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExtractionParams(p=1), "p must be >= 2, got 1"),
        (lambda: r_threshold(1, 2), "p must be >= 2, got 1"),
        (lambda: r_threshold(2, 0), "k must be >= 1, got 0"),
        (lambda: generalized_disjoint_search(SetFamily(4, 2, [3]), math.nan, 0.5), "delta must be in (0, 1/2], got nan"),
        (lambda: generalized_disjoint_search(SetFamily(4, 2, [3]), 0.5, 1.0), "eps must be in (0,1), got 1.0"),
        (lambda: generalized_disjoint_search(SetFamily(4, 2, [3]), 0.5, math.nan), "eps must be in (0,1), got nan"),
    ],
)
def test_invalid_arguments_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("knob", [{"r_override": 2}, {"max_partition_trials": 5}])
def test_removed_params_are_refused(knob):
    with pytest.raises(TypeError):
        ExtractionParams(p=2, **knob)


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


def test_spread_case_search_draws_its_uniforms_per_tile():
    # trial 1 succeeds; drawing all 10^6 trials' uniforms first peaked near 389 MiB
    fam, _ = block_product_family(3, 8)
    tracemalloc.start()
    try:
        petals, used = _spread_case_search(fam, 4, 2, 10**6, 0, STREAM_SPREAD_SEARCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert petals is not None and used == 1
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_search_agrees_with_the_partition_experiment_on_one_stream():
    # the search decides containment by gathering class ids, the experiment by the
    # containment kernel: on one stream, every trial before the search's last hits
    # fewer than ``need`` classes, and the last hits exactly as many as it has petals
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(2, 70)
        k = rng.randint(0, min(4, n))
        fam = SetFamily(n, k, {m(*rng.sample(range(n), k)) for _ in range(rng.randint(0, 30))})
        t = rng.randint(2, 8)
        need, seed = rng.randint(1, t), rng.randrange(2**32)
        petals, used = _spread_case_search(fam, t, need, rng.randint(1, 64), seed, STREAM_PARTITION)
        histogram = partition_experiment(fam, t, used, seed=seed).hit_class_histogram
        expected = [0] * (t + 1)
        if petals is not None:
            expected[len(petals)] = 1
        assert list(histogram[need:]) == expected[need:], (fam.sets, t, need, seed)


def test_generalized_search_memory_does_not_grow_with_the_classes():
    # 10^8 classes: a (trials, classes) table of hit classes peaked at 95 MiB
    fam, _ = block_product_family(3, 8)
    tracemalloc.start()
    try:
        result = generalized_disjoint_search(fam, 1e-8, 0.5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.classes == 10**8 and result.hit_classes == len(result.sets)
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def _pairwise_core_search(sets, p):
    """The fallback as it searched before its cores came from the level
    counts: every pairwise member intersection, by (size, mask)."""
    cores = {sets[i] & sets[j] for i in range(len(sets)) for j in range(i + 1, len(sets))}
    for core in sorted(cores, key=lambda x: (x.bit_count(), x)):
        chosen = find_disjoint_sets([x & ~core for x in sets if x & core == core], p)
        if chosen is not None:
            return core, tuple(s | core for s in chosen)
    return None


def _flower(found):
    return None if found is None else (found.core, found.petals)


def test_brute_force_matches_pairwise_core_oracle():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(3, n))
        all_ksets = [m(*c) for c in combinations(range(n), k)]
        fam = SetFamily(n, k, rng.sample(all_ksets, min(rng.randint(1, 9), len(all_ksets))))
        p = rng.randint(2, 4)
        assert _flower(brute_force_sunflower(fam, p)) == _pairwise_core_search(fam.sets, p), (fam.sets, p)
    for r in (8, 12):
        fam, _ = block_product_family(3, r)
        assert _flower(brute_force_sunflower(fam, 2)) == _pairwise_core_search(fam.sets, 2)


def test_fallback_cores_come_lazily_from_the_level_counts(monkeypatch):
    real, levels = extraction.level_counts, []
    monkeypatch.setattr(extraction, "level_counts", lambda fam, j: levels.append(j) or real(fam, j))
    fam, _ = block_product_family(3, 16)
    assert brute_force_sunflower(fam, 2, cap=10) is None  # the empty core alone spends the cap
    assert levels == []
    hub = SetFamily(7, 3, [m(0, 1, 2), m(0, 3, 4), m(0, 5, 6)])
    assert _flower(brute_force_sunflower(hub, 3)) == (m(0), tuple(hub.sets))
    assert levels == [1]  # the core {0} is found before level 2 is counted


def test_brute_force_respects_cap():
    fam, _ = block_product_family(2, 4)
    assert brute_force_sunflower(fam, 2, cap=0) is None


def test_negative_fallback_cap_is_rejected():
    fam, _ = block_product_family(2, 4)
    with pytest.raises(ValueError):
        brute_force_sunflower(fam, 2, cap=-1)
    with pytest.raises(ValueError, match="p must be >= 1, got 0"):
        brute_force_sunflower(fam, 0)
    with pytest.raises(ValueError):
        ExtractionParams(p=2, fallback_bruteforce_cap=-5)


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
    cores = {0} | {
        c
        for s in sets
        for j in range(1, s.bit_count())
        for c in (m(*e) for e in combinations(elements_of(s), j))
        if sum(x & c == c for x in sets) >= p
    }
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


# --- pinned outputs ------------------------------------------------------------------------


def _fuzz_shape(rng):
    n = rng.randint(2, 16)
    k = rng.randint(1, min(4, n))
    sets = {m(*rng.sample(range(n), k)) for _ in range(rng.randint(1, 12))}
    return SetFamily(n, k, sets), rng.randint(2, 4)


def _planted_shape(rng):
    """A family with a planted (k-2)-set in more members than r = 4 p ln k
    allows, so the extraction strips it by a link step.  In one shape the
    members through it carry disjoint pairs, a spread link past 64 elements."""
    p, k, disjoint = rng.choice((2, 3)), rng.choice((3, 4)), rng.random() < 0.4
    need = math.floor((4.0 * p * math.log(k)) ** 2) + 1
    k = 3 if disjoint else k
    n = 2 * need + 2 if disjoint else rng.randint(28, 32)  # C(n - 2, 2) > 277
    core = rng.sample(range(n), k - 2)
    rest = [e for e in range(n) if e not in core]
    sets = {m(*core, *rest[2 * i : 2 * i + 2]) for i in range(need)} if disjoint else set()
    while len(sets) < need:
        sets.add(m(*core, *rng.sample(rest, 2)))
    while len(sets) < need + 60:
        sets.add(m(*rng.sample(range(n), k)))
    return SetFamily(n, k, sets), p


def test_extraction_outputs_are_pinned():
    # a change to any seeded trace or partition search must update this digest knowingly
    rng = random.Random(16)
    digest = hashlib.sha256()
    links = 0
    for shape in [_fuzz_shape] * 40 + [_planted_shape] * 10:
        fam, p = shape(rng)
        trace = extract_sunflower(fam, ExtractionParams(p=p, seed=rng.randrange(2**63)))
        links += any(isinstance(step, LinkCase) for step in trace.steps)
        digest.update(json.dumps(trace.to_dict(), sort_keys=True).encode())
    block, _ = block_product_family(3, 8)
    for delta, seed in ((0.5, 0), (0.25, 1), (0.125, 2), (1 / 3, 3)):
        result = generalized_disjoint_search(block, delta, 0.5, seed=seed)
        digest.update(json.dumps([result.classes, result.hit_classes, list(result.sets)]).encode())
    assert links >= 10
    assert digest.hexdigest() == "973179e7ead17c4353297051426dbc86af03280f4ed385b72f29d0660aa0f2e4"


@pytest.mark.parametrize("k, r, kinds", [(5, 10, ["spread"]), (4, 12, ["link"] * 3)])
def test_extraction_leaves_the_masks_unbuilt(k, r, kinds):
    family = family_from_dict(family_to_dict(block_product_family(k, r)[0]))
    params = ExtractionParams(p=2, seed=5)
    first = extract_sunflower(family, params)
    assert [step["kind"] for step in first.to_dict()["steps"]] == kinds
    assert first.succeeded
    assert family._sets is None
    second = extract_sunflower(family, params)
    assert json.dumps(second.to_dict(), sort_keys=True) == json.dumps(first.to_dict(), sort_keys=True)
    assert family._sets is None


def test_one_petal_search_returns_the_first_member():
    fam = SetFamily(5, 2, [m(1, 2), m(0, 3), m(2, 4)])
    assert brute_force_sunflower(fam, 1) == Sunflower(core=fam.sets[0], petals=(fam.sets[0],))


@pytest.mark.parametrize("fam", [SetFamily(4, 2, []), SetFamily(4, 0, [0])])
def test_empty_and_zero_uniform_families_take_no_steps(fam):
    trace = extract_sunflower(fam, ExtractionParams(p=2))
    assert trace.steps == () and not trace.succeeded


def test_link_to_too_few_members_ends_the_recursion():
    # element 0 lies in all 3 members (> r = 4*ln(2) at C = 1); its link holds 3 singletons, fewer than p = 4
    star = SetFamily(4, 2, [0b11, 0b101, 0b1001])
    trace = extract_sunflower(star, ExtractionParams(p=4, C=1))
    assert trace.steps == (LinkCase(t=1, count=3),)
    assert not trace.succeeded and trace.fallback_used is False


def test_more_petals_than_members_skip_the_search_and_the_fallback():
    # 4 members hit at most 4 of the 2p classes: the 64p trials are counted, not drawn, and the
    # fallback returns before it builds the masks
    fam = family_from_dict(family_to_dict(block_product_family(2, 2)[0]))
    params = ExtractionParams(p=100000)
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        trace = extract_sunflower(fam, params)
        elapsed.append(time.perf_counter() - start)
    assert trace.steps == (SpreadCase(r=r_threshold(100000, 2), trials_used=6_400_000, found_disjoint=False),)
    assert trace.fallback_used and not trace.succeeded
    assert fam._sets is None
    assert min(elapsed) < 0.01, elapsed


def test_spread_step_after_two_links_reads_the_stream_of_its_depth():
    # {0, 1} lies in all 30 members; at C = 1 and p = 2 element 0 (30 > (2*ln(4))^3), then element 1
    # (30 > (2*ln(3))^2) is stripped, leaving 30 disjoint pairs; their search reads stream STREAM_SPREAD_SEARCH + 2
    fam = SetFamily(62, 4, [m(0, 1, 2 * i + 2, 2 * i + 3) for i in range(30)])
    params = ExtractionParams(p=2, C=1, seed=1)
    trace = extract_sunflower(fam, params)
    assert trace.steps[:2] == (LinkCase(t=m(0), count=30), LinkCase(t=m(1), count=30))
    twice = link(link(fam, m(0)), m(1))
    petals, used = _spread_case_search(twice, 4, 2, params.partition_trials, 1, STREAM_SPREAD_SEARCH + 2)
    assert trace.steps[2:] == (SpreadCase(r=r_threshold(2, 2, 1), trials_used=used, found_disjoint=True),)
    assert trace.sunflower == Sunflower(core=m(0, 1), petals=tuple(petal | m(0, 1) for petal in petals[:2]))
    assert _spread_case_search(twice, 4, 2, params.partition_trials, 1, STREAM_SPREAD_SEARCH) != (petals, used)
