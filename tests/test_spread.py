import bisect
import json
import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from sunflowers import cli, spread
from sunflowers.bitset import elements_of, mask_from_elements
from sunflowers.constructions import block_product_family
from sunflowers.families import SetFamily, family_from_dict, family_to_dict
from sunflowers.spread import (
    SpreadViolation,
    level_counts,
    rank_to_elements,
    spread_witness,
    spreadness,
    superset_count,
)


def m(*elements):
    return mask_from_elements(elements)


def rank_to_mask(rank, j):
    return mask_from_elements(rank_to_elements(rank, j))


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


def test_superset_count_reads_the_rows_not_the_holders():
    # holders() would take n bits for every element: 128 MiB at n = 10^7
    fam = family_from_dict({"ground_set_size": 10**7, "k": 1, "sets": [[9_999_999], [9], [4_000_000], [77]]})
    tracemalloc.start()
    try:
        counts = [superset_count(fam, 1 << 9), superset_count(fam, 1 << 8), superset_count(fam, (1 << 9) | 1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [1, 0, 0]
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert fam._holders is None and fam._sets is None


def _naive_counts(family):
    # oracle: scan every non-empty subset of the whole ground set
    counts = {}
    n = family.ground_size
    for t in range(1, 1 << n):
        c = sum(1 for s in family.sets if s & t == t)
        if c:
            counts[t] = c
    return counts


def _level_dict(family):
    return {
        rank_to_mask(rank, j): int(count)
        for j in range(1, family.k + 1)
        for rank, count in zip(*level_counts(family, j))
    }


def test_level_counts_match_naive_enumeration():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 9)
        k = rng.randint(1, min(3, n))
        size = rng.randint(1, 8)
        sets = rng.sample([m(*c) for c in combinations(range(n), k)],
                          min(size, len(list(combinations(range(n), k)))))
        fam = SetFamily(n, k, sets)
        assert _level_dict(fam) == _naive_counts(fam)


def _linear_rank_to_mask(rank, j):
    # the element-by-element search that the bisection replaced
    mask, e = 0, j - 1
    while math.comb(e + 1, j) <= rank:
        e += 1
    for i in range(j, 0, -1):
        while math.comb(e, i) > rank:
            e -= 1
        rank -= math.comb(e, i)
        mask |= 1 << e
        e -= 1
    return mask


def test_rank_to_elements_inverts_the_colex_rank():
    rng = random.Random(5)
    for _ in range(300):
        j = rng.randint(1, 6)
        n = rng.choice([j, j + 1, 10, 64, 1000, 10**8])
        elements = tuple(sorted(rng.sample(range(n), j)))
        rank = sum(math.comb(e, i + 1) for i, e in enumerate(elements))
        assert rank_to_elements(rank, j) == elements
        if n <= 1000:
            assert _linear_rank_to_mask(rank, j) == m(*elements)
    assert rank_to_elements(0, 3) == (0, 1, 2) and rank_to_elements(np.int64(10**8 - 1), 1) == (10**8 - 1,)


def test_check_spread_on_a_wide_ground_set_stays_small(tmp_path, capsys):
    # three pairs sharing element n - 1 at n = 10^8: a table over the ground set would hold 10^8 entries,
    # and the violation's mask 12.5 MB
    path = tmp_path / "wide.json"
    path.write_text('{"ground_set_size": 100000000, "k": 2, "sets": [[99999999, 10], [99999999, 70], [99999999, 50]]}')
    assert len(path.read_bytes()) == 96
    tracemalloc.start()
    try:
        code = cli.main(["check-spread", str(path), "--r", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["violation"] == {"t": [99999999], "count": 3} and payload["spreadness"] == 3.0
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_level_ranks_ascend_in_mask_order():
    fam, _ = block_product_family(3, 3)
    for j in (1, 2, 3):
        ranks, _ = level_counts(fam, j)
        masks = [rank_to_mask(rank, j) for rank in ranks]
        assert masks == sorted(masks) and all(t.bit_count() == j for t in masks)
    with pytest.raises(ValueError):
        level_counts(fam, 4)


# --- the level counter against the submask-dictionary count it replaced ----------


def _dict_counts(family):
    """Superset count of every member submask, in (|T|, mask-value) order."""
    counts = {}
    for s in family.sets:
        sub = s
        while sub:  # every non-empty submask of s
            counts[sub] = counts.get(sub, 0) + 1
            sub = (sub - 1) & s
    return dict(sorted(counts.items(), key=lambda item: (item[0].bit_count(), item[0])))


def _dict_witness(counts, k, r):
    for t, count in counts.items():
        if count > r ** (k - t.bit_count()):
            return SpreadViolation(elements_of(t), count)
    return None


def _dict_spreadness(counts, k):
    best = 1.0
    for t, count in counts.items():
        if k - t.bit_count() >= 1:
            best = max(best, spread._count_root(count, k - t.bit_count()))
    return best


def _random_family(rng, n, k, size, pool_size=10):
    # members drawn from a small pool of elements, so that counts exceed 1
    pool = rng.sample(range(n - 1), min(n, max(k, pool_size)) - 1) + [n - 1]
    return SetFamily(n, k, {m(*rng.sample(pool, k)) for _ in range(size)})


def _assert_matches_dict_count(fam):
    counts = _dict_counts(fam)
    value = spreadness(fam)
    assert value == _dict_spreadness(counts, fam.k)
    for r in (0.5, 1.0, 1.5, 2.0, 3.0, value, value * (1 - 1e-9)):
        assert spread_witness(fam, r).violation == _dict_witness(counts, fam.k, r), r


@pytest.mark.parametrize("n", [5, 12, 63, 64, 65, 130])
def test_level_counter_matches_dict_count(n):
    rng = random.Random(n)
    for k in [1, 2] + [rng.randint(1, min(5, n)) for _ in range(10)]:
        _assert_matches_dict_count(_random_family(rng, n, k, rng.randint(1, 30)))
    _assert_matches_dict_count(SetFamily(n, 2, [m(n - 1, e) for e in range(n - 1)]))


def test_level_counter_matches_dict_count_with_object_ranks():
    # C(130, j) >= 2^63 for 15 <= j <= 115, so the ranks are Python ints
    assert math.comb(130, 15) >= 2**63
    fam = _random_family(random.Random(3), 130, 16, 3, pool_size=20)
    assert len(fam) == 3 and level_counts(fam, 15)[0].dtype == object
    _assert_matches_dict_count(fam)


@pytest.mark.parametrize("n", [568, 569])
def test_level_counter_on_each_side_of_uint32_ranks(n):
    # C(568, 4) <= 2^32 < C(569, 4): level 4 is summed in uint32 at n = 568, in int64 at n = 569
    top = m(*range(n - 5, n))  # holds {n-4, ..., n-1}, whose rank C(n, 4) - 1 is the largest
    fam = SetFamily(n, 5, set(_random_family(random.Random(n), n, 5, 40, pool_size=12).sets) | {top})
    ranks, counts = level_counts(fam, 4)
    assert ranks.dtype == np.int64 and ranks[-1] == math.comb(n, 4) - 1
    expected = {t: c for t, c in _dict_counts(fam).items() if t.bit_count() == 4}
    assert {rank_to_mask(rank, 4): int(c) for rank, c in zip(ranks, counts)} == expected
    _assert_matches_dict_count(fam)


def _largest_n(j, limit):
    """The largest n with j·C(n, j) <= limit."""
    return bisect.bisect_right(range(1 << 32), limit, key=lambda n: j * math.comb(n, j)) - 1


@pytest.mark.parametrize("limit", [2**32, 2**63])
@pytest.mark.parametrize("j", [2, 3, 4, 5])
def test_level_counter_on_each_side_of_its_step_dtypes(j, limit):
    # The binomial steps of level j run in uint32 while j·C(n, j) <= 2^32, in int64 while it is
    # <= 2^63.  At n = base they take the narrow dtype; at base + 1 the top member's last product,
    # j·C(base, j), still fits it; at base + 2 its product j·C(base + 1, j) does not.
    base, k = _largest_n(j, limit), j + 1
    rng = random.Random(j * limit)
    for n in (base, base + 1, base + 2):
        pool = list(range(n - 2 * k, n)) + rng.sample(range(n - 2 * k), 6)
        rows = {tuple(range(n - k, n))} | {tuple(sorted(rng.sample(pool, k))) for _ in range(30)}
        fam = family_from_dict({"ground_set_size": n, "k": k, "sets": [list(row) for row in rows]})
        expected = Counter(
            sum(math.comb(e, i + 1) for i, e in enumerate(t)) for row in rows for t in combinations(row, j)
        )
        ranks, counts = level_counts(fam, j)
        assert ranks.dtype == (object if math.comb(n, min(k, n // 2)) >= 2**63 else np.int64)
        assert [int(r) for r in ranks] == sorted(expected) and counts.tolist() == [expected[r] for r in sorted(expected)]


def _record_levels(monkeypatch):
    counted = []
    original = spread._count_level

    def recording(n, elements, j):
        counted.append(j)
        return original(n, elements, j)

    monkeypatch.setattr(spread, "_count_level", recording)
    return counted


@pytest.mark.parametrize("extra", [["--r", "3"], ["--r", "2"]])
def test_check_spread_counts_each_level_once(monkeypatch, tmp_path, capsys, extra):
    fam, _ = block_product_family(4, 3)
    path = tmp_path / "block43.json"
    path.write_text(json.dumps(family_to_dict(fam)))
    counted = _record_levels(monkeypatch)
    code = cli.main(["check-spread", str(path), *extra])
    payload = json.loads(capsys.readouterr().out)
    assert code == (0 if extra[1] == "3" else 1) and payload["spreadness"] == 3.0
    assert sorted(counted) == [1, 2, 3]


def test_singleton_violation_counts_only_level_one(monkeypatch):
    fam = SetFamily(8, 4, [m(0, 1, 2, 3), m(0, 4, 5, 6), m(0, 5, 6, 7), m(0, 1, 6, 7)])
    counted = _record_levels(monkeypatch)
    assert spread_witness(fam, 1.5).violation == SpreadViolation((0,), 4)
    assert counted == [1]


def test_counting_block_7_4_stays_small():
    fam, _ = block_product_family(7, 4)
    tracemalloc.start()
    try:
        assert spreadness(fam) == 4.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MB"


# --- the dense histogram against the sort ---------------------------------------


def _count_tiles(monkeypatch, budget=None):
    """Record the members of each block of ranks a level is counted from (every tile of the histogram,
    or the one sorted block), with the byte budget set to ``budget``."""
    if budget is not None:
        monkeypatch.setattr(spread, "_KERNEL_TILE_BYTES", budget)
    tiles = []
    original = spread._level_ranks

    def recording(elements, *args):
        tiles.append(len(elements))
        return original(elements, *args)

    monkeypatch.setattr(spread, "_level_ranks", recording)
    return tiles


def _assert_same_level(got, expected):
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape and not a.flags.writeable and not b.flags.writeable
        assert a.tolist() == b.tolist() and (a.dtype == object or a.tobytes() == b.tobytes())


def _crossing_n(j):
    """The largest n whose C(n, j) int64 bins fit the byte budget."""
    return bisect.bisect_right(range(1 << 16), spread._KERNEL_TILE_BYTES, key=lambda n: 8 * math.comb(n, j)) - 1


@pytest.mark.parametrize("j", [2, 3])
def test_histogram_and_sort_agree_on_each_side_of_the_bin_budget(monkeypatch, j):
    # At n = base the C(n, j) bins fit the budget, at base + 1 they do not.  Each family has more ranks
    # than bins and more members than one tile holds, so the budget alone picks the path: the histogram
    # (two tiles) at base, the sort (one block) at base + 1.  A budget of 0 bytes, or of just the bins of
    # base + 1, forces the other path.
    base, k = _crossing_n(j), j + 1
    assert 8 * math.comb(base, j) <= spread._KERNEL_TILE_BYTES < 8 * math.comb(base + 1, j)
    gen = np.random.default_rng(j)
    for n, budget in ((base, 0), (base + 1, 8 * math.comb(base + 1, j))):
        rows = np.unique(np.sort(gen.choice(n, (60_000, k)), axis=1), axis=0)
        rows = rows[(rows[:, 1:] > rows[:, :-1]).all(axis=1)]  # distinct elements in each row
        elements = family_from_dict({"ground_set_size": n, "k": k, "sets": rows.tolist()}).elements()
        assert len(elements) * math.comb(k, j) > math.comb(n, j)
        with monkeypatch.context() as patch:
            tiles = _count_tiles(patch)
            by_budget = spread._count_level(n, elements, j)
            dense = len(tiles) > 1
        with monkeypatch.context() as patch:
            tiles = _count_tiles(patch, budget)
            forced = spread._count_level(n, elements, j)
            assert dense == (n == base) and (len(tiles) > 1) == (not dense)
        _assert_same_level(by_budget, forced)
        expected = Counter(sum(math.comb(e, i + 1) for i, e in enumerate(t)) for row in rows for t in combinations(row, j))
        assert by_budget[0].tolist() == sorted(expected) and by_budget[1].tolist() == [expected[r] for r in sorted(expected)]


def test_histogram_sums_several_tiles_with_a_partial_last_one(monkeypatch):
    # 8·C(10, 2) = 360 bytes of bins; ranks of 360 // (8·3) = 15 members a tile: 100 members in 7 tiles
    fam = SetFamily(10, 3, [m(*t) for t in combinations(range(10), 3)][:100])
    sorted_level = spread._count_level(10, fam.elements(), 2)
    tiles = _count_tiles(monkeypatch, 360)
    _assert_same_level(spread._count_level(10, fam.elements(), 2), sorted_level)
    assert tiles == [15] * 6 + [10]
    _assert_matches_dict_count(fam)


@pytest.mark.parametrize("n,k", [(10, 3), (600, 3), (130, 16)])
def test_levels_of_the_empty_family(monkeypatch, n, k):
    # empty, read-only int64 counts, and ranks in the family's rank dtype, on either path: with no ranks,
    # a level of more than 2^10 bins is sorted as one empty block, and a smaller one counts no tile
    fam = SetFamily(n, k, [])
    tiles = _count_tiles(monkeypatch)
    for j in range(1, k + 1):
        ranks, counts = level_counts(fam, j)
        assert ranks.dtype == (object if n == 130 else np.int64) and counts.dtype == np.int64
        assert ranks.shape == counts.shape == (0,) and not ranks.flags.writeable and not counts.flags.writeable
    assert tiles == [0] * sum(math.comb(n, j) > 2**10 for j in range(1, k + 1))


def test_counting_a_dense_level_in_tiles_stays_within_the_budget(monkeypatch):
    # block(5,10) level 2: 10^5 members, 10^6 ranks in 1,225 bins, so 8 tiles; as one block the ranks
    # alone took 4 MB and their sort 11.4 MiB
    fam, _ = block_product_family(5, 10)
    tiles = _count_tiles(monkeypatch)
    tracemalloc.start()
    try:
        ranks, counts = level_counts(fam, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tiles) == 8 and len(ranks) == math.comb(5, 2) * 100 and set(counts.tolist()) == {1000}
    assert peak < 3 * spread._KERNEL_TILE_BYTES, f"peak {peak / 2**20:.2f} MiB"


# --- spread_witness ------------------------------------------------------------


def test_block_family_certified_at_its_width():
    fam, _ = block_product_family(2, 2)
    assert spread_witness(fam, 2.0).certified


def test_star_violates_at_r3():
    report = spread_witness(star(4), 3.0)
    assert report.violation == SpreadViolation((0,), 4)
    # the certificate self-verifies
    assert superset_count(star(4), m(0)) == 4


def test_huge_r_always_certifies():
    for fam in (star(4), block_product_family(2, 3)[0]):
        assert spread_witness(fam, float(len(fam))).certified


def test_threshold_past_the_float_range_saturates():
    # 1e300 ** 2 overflows a float; no count can exceed the threshold
    fam, _ = block_product_family(3, 2)
    report = spread_witness(fam, 1e300)
    assert report.certified and report.r == 1e300


def test_violation_tie_break_prefers_small_then_lexicographic():
    # {0} and {5} are both violating singletons at r = 1.5; {0} has the
    # smaller mask
    fam = SetFamily(6, 2, [m(0, 1), m(0, 2), m(5, 3), m(5, 4)])
    report = spread_witness(fam, 1.5)
    assert report.violation == SpreadViolation((0,), 2)


def test_removed_worst_order_is_refused():
    with pytest.raises(TypeError):
        spread_witness(star(4), 2, worst=True)


def test_monotone_in_r():
    fam = star(4)
    certified = [spread_witness(fam, r).certified for r in (1.0, 2.0, 3.9, 4.0, 4.1, 10.0)]
    assert certified == sorted(certified)  # once certified, stays certified


def test_spread_witness_validates():
    with pytest.raises(ValueError):
        spread_witness(SetFamily(2, 1, [m(0)]), 0.0)
    with pytest.raises(ValueError):
        spread_witness(SetFamily(2, 1, []), 1.0)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            spread_witness(star(3), r)


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


def test_spreadness_of_the_empty_family_is_refused():
    with pytest.raises(ValueError, match="spreadness requires a non-empty family"):
        spreadness(SetFamily(4, 2, []))
