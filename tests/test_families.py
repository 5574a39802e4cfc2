import copy
import json
import random
import re
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sunflowers.bitset import mask_from_elements
from sunflowers.constructions import block_product_family
from sunflowers.families import (
    SetFamily,
    Sunflower,
    family_from_dict,
    family_to_dict,
    find_disjoint_sets,
    is_sunflower,
    link,
    load_family,
    save_family,
)
from sunflowers.spread import superset_count


def m(*elements):
    return mask_from_elements(elements)


# --- is_sunflower ---------------------------------------------------------------


def test_sunflower_disjoint_sets_have_empty_core():
    flower = is_sunflower([m(1, 2), m(3, 4), m(5, 6)])
    assert flower == Sunflower(core=0, petals=(m(1, 2), m(3, 4), m(5, 6)))


def test_sunflower_common_element():
    flower = is_sunflower([m(1, 2), m(1, 3), m(1, 4)])
    assert flower is not None and flower.core == m(1)


def test_triangle_is_not_a_sunflower():
    # pairwise intersections are {2}, {1}, {3}: not identical
    assert is_sunflower([m(1, 2), m(2, 3), m(1, 3)]) is None


def test_single_set_is_a_one_petal_sunflower():
    flower = is_sunflower([m(1, 2)])
    assert flower == Sunflower(core=m(1, 2), petals=(m(1, 2),))


def test_sunflower_rejects_bad_input():
    with pytest.raises(ValueError):
        is_sunflower([])
    with pytest.raises(ValueError):
        is_sunflower([m(1, 2), m(1, 2)])


@st.composite
def distinct_ksets(draw, min_sets=2, max_sets=2):
    k = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=k, max_value=10))
    universe = list(range(n))
    count = draw(st.integers(min_value=min_sets, max_value=max_sets))
    sets = draw(
        st.lists(
            st.sets(st.sampled_from(universe), min_size=k, max_size=k).map(mask_from_elements),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    return sets


@given(distinct_ksets(min_sets=2, max_sets=2))
def test_any_two_distinct_sets_form_a_sunflower(sets):
    assert is_sunflower(sets) is not None


@given(distinct_ksets(min_sets=2, max_sets=5))
def test_core_equals_total_intersection_when_present(sets):
    flower = is_sunflower(sets)
    if flower is not None:
        total = sets[0]
        for s in sets[1:]:
            total &= s
        assert flower.core == total


# --- link -----------------------------------------------------------------------


def test_link_strips_common_element():
    fam = SetFamily(4, 2, [m(1, 2), m(1, 3), m(2, 3)])
    assert link(fam, m(1)).sets == (m(2), m(3))


def test_link_with_absent_t_is_empty():
    fam = SetFamily(6, 2, [m(1, 2), m(3, 4)])
    assert len(link(fam, m(5))) == 0


def test_link_strips_pairs():
    fam = SetFamily(5, 3, [m(1, 2, 3), m(1, 2, 4)])
    assert link(fam, m(1, 2)).sets == (m(3), m(4))


def test_link_validates_t():
    fam = SetFamily(4, 2, [m(1, 2)])
    with pytest.raises(ValueError):
        link(fam, 0)
    with pytest.raises(ValueError):
        link(fam, m(0, 1, 2))


def test_negative_masks_are_refused():
    # bin() keeps the sign, so -1 and -6 once read as {0} and {1, 2}
    fam = SetFamily(4, 2, [0b0011, 0b0101, 0b1100])
    for t in (-1, -6, -m(0, 1, 2)):
        with pytest.raises(ValueError, match="non-negative"):
            link(fam, t)
        with pytest.raises(ValueError, match="non-negative"):
            superset_count(fam, t)


@given(distinct_ksets(min_sets=1, max_sets=6), st.data())
def test_link_cardinality_and_roundtrip(sets, data):
    k = sets[0].bit_count()
    fam = SetFamily(10, k, sets)
    t = data.draw(st.integers(min_value=1, max_value=(1 << 10) - 1).filter(lambda x: x.bit_count() <= k))
    linked = link(fam, t)
    assert len(linked) == sum(1 for s in fam.sets if s & t == t)
    for stripped in linked.sets:
        assert (stripped | t) in fam.sets


def _oracle_link(family, t):
    # the mask comprehension that the row selection replaced
    return SetFamily(family.ground_size, family.k - t.bit_count(), [s & ~t for s in family.sets if s & t == t])


def _random_rows(rng, n, k, size):
    rows = {tuple(sorted(rng.sample(range(n), k))) for _ in range(size)}
    return [list(row) for row in sorted(rows)]


def _both_forms(rng, n, k, rows):
    built = SetFamily(n, k, [m(*row) for row in rows])
    loaded = family_from_dict({"ground_set_size": n, "k": k, "sets": [rng.sample(row, k) for row in rows]})
    return built, loaded


@pytest.mark.parametrize("n", [62, 63, 64, 65, 127, 128, 129])
def test_link_matches_mask_oracle(n):
    rng = random.Random(n)
    for _ in range(12):
        k = rng.randint(1, 5)
        rows = _random_rows(rng, n, k, rng.randint(1, 60))
        # a popular element, so that some links are large
        rows += [sorted({n - 1} | set(rng.sample(range(n - 1), k - 1))) for _ in range(rng.randint(0, 20))]
        rows = [list(row) for row in sorted({tuple(row) for row in rows})]
        used = {e for row in rows for e in row}
        absent = [e for e in range(n) if e not in used]
        ts = [m(*rng.sample(row, rng.randint(1, k))) for row in rng.sample(rows, min(8, len(rows)))]
        ts += [m(*rng.sample(row, k - 1)) for row in rows[:3] if k > 1]  # |T| = k - 1
        ts += [m(n - 1), m(0, n - 1)] if k > 1 else [m(n - 1)]
        ts += [m(absent[0])] if absent else []  # in no member
        ts += [1 << n, m(rows[0][0]) | 1 << (n + 5)]  # an element past the ground set
        built, loaded = _both_forms(rng, n, k, rows)
        for parent in (built, loaded):
            links = [(t, link(parent, t)) for t in ts if t.bit_count() <= k]
            assert loaded._sets is None  # a loaded parent's links read only its matrix
            for t, got in links:
                expected = _oracle_link(parent, t)
                assert got.k == expected.k == k - t.bit_count() and got.ground_size == n
                assert got.elements().dtype == expected.elements().dtype
                assert got.elements().tolist() == expected.elements().tolist(), hex(t)
                assert not got.elements().flags.writeable
                assert got.sets == expected.sets


# --- one stored form ------------------------------------------------------------------


def test_mask_built_and_loaded_families_are_one_form(tmp_path):
    from sunflowers.probability import hit_counts_by_size
    from sunflowers.spread import level_counts

    rng = random.Random(15)
    for case in range(120):
        n = rng.choice([1, 2, 5, 8, 9, 16, 24, 40, 63, 64, 65, 130, 300])
        k = rng.randint(0, min(n, 5))
        rows = _random_rows(rng, n, k, rng.randint(0, 30))
        built, loaded = _both_forms(rng, n, k, rows)
        assert len(built) == len(loaded) == len(rows) and built == loaded
        assert built.elements().dtype == loaded.elements().dtype
        assert built.elements().tolist() == loaded.elements().tolist() == sorted(rows, key=lambda r: m(*r))
        assert not built.elements().flags.writeable and built.elements().flags.c_contiguous
        assert built.holders().tobytes() == loaded.holders().tobytes()
        for j in range(1, k + 1):
            for got, expected in zip(level_counts(loaded, j), level_counts(built, j)):
                assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
        if n <= 24:
            assert hit_counts_by_size(built).tolist() == hit_counts_by_size(loaded).tolist()
        save_family(built, tmp_path / "built.json")
        save_family(loaded, tmp_path / "loaded.json")
        assert (tmp_path / "built.json").read_bytes() == (tmp_path / "loaded.json").read_bytes()
        assert loaded._sets is None  # nothing above needed the masks
        assert built.sets == loaded.sets == tuple(sorted(m(*row) for row in rows))


# --- find_disjoint_sets -----------------------------------------------------------


def test_find_disjoint_pair():
    fam = SetFamily(5, 2, [m(1, 2), m(3, 4), m(1, 3)])
    assert find_disjoint_sets(fam.sets, 2) == [m(1, 2), m(3, 4)]


def test_no_disjoint_pair_when_all_share_an_element():
    fam = SetFamily(5, 2, [m(1, 2), m(1, 3), m(1, 4)])
    assert find_disjoint_sets(fam.sets, 2) is None


def test_find_disjoint_in_transversal_family():
    # oracle: exhaustively enumerate all disjoint pairs first
    from sunflowers.constructions import block_product_family

    fam, _ = block_product_family(2, 2)
    disjoint_pairs = [
        (a, b) for i, a in enumerate(fam.sets) for b in fam.sets[i + 1 :] if a & b == 0
    ]
    assert disjoint_pairs == [(m(0, 2), m(1, 3)), (m(1, 2), m(0, 3))]
    assert find_disjoint_sets(fam.sets, 2) == [m(0, 2), m(1, 3)]


def test_find_disjoint_sets_matches_combinations_oracle():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 10)
        sets = [rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 9))]
        for q in range(1, 5):
            expected = next(
                (list(c) for c in combinations(sets, q) if all(a & b == 0 for a, b in combinations(c, 2))),
                None,
            )
            assert find_disjoint_sets(sets, q) == expected, (sets, q)
    assert find_disjoint_sets([m(0), m(1)], 3) is None


def test_find_disjoint_sets_spend_gives_up():
    sets = [m(0, 1), m(0, 2), m(3, 4)]
    calls = []

    def spend_two():
        calls.append(None)
        return len(calls) <= 2

    assert find_disjoint_sets(sets, 2, spend_two) is None
    assert find_disjoint_sets(sets, 2, lambda: True) == [m(0, 1), m(3, 4)]
    with pytest.raises(ValueError):
        find_disjoint_sets(sets, 0)


# --- SetFamily invariants ----------------------------------------------------------


def test_family_sorts_and_dedups():
    fam = SetFamily(4, 2, [m(2, 3), m(0, 1), m(2, 3)])
    assert fam.sets == (m(0, 1), m(2, 3))


def test_family_validates_members():
    with pytest.raises(ValueError):
        SetFamily(4, 2, [m(0, 1, 2)])
    with pytest.raises(ValueError):
        SetFamily(3, 2, [m(2, 3)])
    with pytest.raises(ValueError):
        SetFamily(0, 0, [])


def test_membership():
    fam = SetFamily(4, 2, [m(0, 1), m(2, 3)])
    assert m(0, 1) in fam and m(0, 2) not in fam


@pytest.mark.parametrize("kind", [np.int64, np.uint8, np.uint64])
def test_numpy_integer_masks_work_at_every_entry_point(kind):
    fam = SetFamily(4, 2, [kind(3), kind(12)])
    assert fam == SetFamily(4, 2, [3, 12]) and all(type(s) is int for s in fam.sets)
    assert kind(3) in fam and kind(5) not in fam
    assert kind(3) in _loaded(fam) and kind(5) not in _loaded(fam)
    assert link(fam, kind(1)) == link(fam, 1)


@pytest.mark.parametrize("bad", [3.0, "3", None])
def test_non_integer_masks_raise_type_error(bad):
    fam = SetFamily(4, 2, [3])
    with pytest.raises(TypeError):
        SetFamily(4, 2, [bad])
    with pytest.raises(TypeError):
        bad in fam
    with pytest.raises(TypeError):
        link(fam, bad)
    with pytest.raises(TypeError):
        superset_count(fam, bad)


@pytest.mark.parametrize("n, k, masks", [(5000.0, 2, [m(4097, 4099)]), (4, 2.0, [3])])
def test_non_integer_sizes_raise_type_error(n, k, masks):
    # a float n once chose a float16 element matrix that lost its own member
    with pytest.raises(TypeError):
        SetFamily(n, k, masks)


@pytest.mark.parametrize("kind", [np.int64, np.uint16])
def test_numpy_integer_sizes_build_the_same_family(kind):
    masks = [m(4097, 4099), m(0, 4999)]
    fam = SetFamily(kind(5000), kind(2), masks)
    assert fam == SetFamily(5000, 2, masks) and hash(fam) == hash(SetFamily(5000, 2, masks))
    assert type(fam.ground_size) is int and type(fam.k) is int and fam.elements().dtype == np.uint16
    assert all(mask in fam for mask in masks)


def _loaded(fam):
    return family_from_dict(family_to_dict(fam))


def test_membership_edge_cases():
    fam = _loaded(SetFamily(4, 2, [m(0, 1), m(2, 3)]))
    assert m(0, 4) not in fam and m(4, 5) not in fam  # wider than n
    assert m(0) not in fam and m(0, 1, 2) not in fam and 0 not in fam  # wrong popcount
    assert -1 not in fam and -m(0, 1) not in fam and -6 not in fam
    assert 0 in SetFamily(4, 0, [0]) and 0 in _loaded(SetFamily(4, 0, [0]))
    assert m(1) not in SetFamily(4, 0, [0])
    assert 0 not in SetFamily(4, 0, []) and m(0, 1) not in _loaded(SetFamily(4, 2, []))
    assert fam._sets is None


@pytest.mark.parametrize("n", [5, 9, 64, 65, 130])
def test_membership_matches_mask_oracle(n):
    rng = random.Random(n)
    for _ in range(20):
        k = rng.randint(0, min(4, n))
        masks = {m(*rng.sample(range(n), k)) for _ in range(rng.randint(0, 30))}
        probes = list(masks) + [m(*rng.sample(range(n), k)) for _ in range(30)]
        for fam in (SetFamily(n, k, masks), _loaded(SetFamily(n, k, masks))):
            assert [x in fam for x in probes] == [x in masks for x in probes]


def test_identity_reads_the_element_matrix():
    # {0, 1, 2} x {3, 4, 5}: over n = 6 as a block family, over n = 9 as a link of one
    masks = [m(a, b) for a in range(3) for b in range(3, 6)]
    block3 = block_product_family(3, 3)[0]
    for n, made in ((6, block_product_family(2, 3)[0]), (9, link(block3, m(6)))):
        ways = [SetFamily(n, 2, masks), _loaded(SetFamily(n, 2, masks)), made, _loaded(made)]
        assert all(fam == ways[0] for fam in ways)
        assert len({hash(fam) for fam in ways}) == 1
    assert SetFamily(6, 2, masks) != SetFamily(9, 2, masks)
    fam = _loaded(block3)
    assert hash(fam) == hash(block3) and m(0, 3, 6) in fam and m(0, 1, 6) not in fam
    assert fam._sets is None and block3._sets is None
    single = _loaded(SetFamily(4, 1, [1]))
    assert (-1 in single) is False and single._sets is None


@pytest.mark.parametrize("n,size", [(3, 0), (65, 70), (130, 64)])
def test_holders_matrix_bits(n, size):
    rng = random.Random(n)
    sets = set()
    while len(sets) < size:
        sets.add(m(*rng.sample(range(n), 2)))
    fam = SetFamily(n, 2, sets)
    holders = fam.holders()
    words = -(-len(fam) // 64)
    assert holders.shape == (n, words) and holders.dtype == np.uint64
    for e in range(n):
        row = sum(int(w) << (64 * i) for i, w in enumerate(holders[e]))
        # oracle: bit j of row e says whether member j holds element e; padding bits stay 0
        assert row == sum(1 << j for j, s in enumerate(fam.sets) if s >> e & 1)
    assert fam.holders() is holders and not holders.flags.writeable


@pytest.mark.parametrize("n,k,size", [(3, 0, 1), (3, 2, 0), (16, 1, 9), (65, 3, 70), (256, 4, 40), (300, 2, 50)])
def test_elements_matrix_rows(n, k, size):
    rng = random.Random(n)
    sets = set()
    while len(sets) < size:
        sets.add(m(*rng.sample(range(n), k)))
    fam = SetFamily(n, k, sets)
    elements = fam.elements()
    assert elements.shape == (size, k)
    assert elements.dtype == (np.uint8 if n <= 256 else np.uint16)
    # oracle: each row lists its member's set bits in ascending order
    rows = [[e for e in range(n) if s >> e & 1] for s in fam.sets]
    assert elements.tolist() == rows
    assert fam.elements() is elements and not elements.flags.writeable


# --- JSON format --------------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    fam = SetFamily(5, 2, [m(0, 1), m(3, 4)])
    path = tmp_path / "fam.json"
    save_family(fam, path)
    data = json.loads(path.read_text())
    assert data == {"ground_set_size": 5, "k": 2, "sets": [[0, 1], [3, 4]]}
    assert load_family(path) == fam


@pytest.mark.parametrize(
    "text",
    [
        "[" * 100_000 + "]" * 100_000,
        '{"ground_set_size": 4, "k": 2, "sets": [[0, 1]], "note": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["bare", "unused-key"],
)
def test_loader_rejects_deeply_nested_json(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="nested"):
        load_family(path)


def test_loader_rejects_duplicates():
    with pytest.raises(ValueError):
        family_from_dict({"ground_set_size": 4, "k": 2, "sets": [[0, 1], [1, 0]]})


def test_loader_rejects_wrong_cardinality():
    with pytest.raises(ValueError):
        family_from_dict({"ground_set_size": 4, "k": 2, "sets": [[0, 1, 2]]})
    with pytest.raises(ValueError):
        family_from_dict({"ground_set_size": 4, "k": 2, "sets": [[1, 1]]})


def test_loader_rejects_out_of_range_elements():
    with pytest.raises(ValueError):
        family_from_dict({"ground_set_size": 4, "k": 2, "sets": [[0, 4]]})


@pytest.mark.parametrize("row", [[0, 10**8], [-1, 0]])
def test_loader_range_checks_before_building_masks(row):
    # a mask for element 10**8 would take 12.5 MB; the row must be refused first
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="leaves the ground set"):
            family_from_dict({"ground_set_size": 4, "k": 2, "sets": [row]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "text",
    [
        '{"ground_set_size": 4.9, "k": 2, "sets": [[0.7, 1.2], [2.5, 3]]}',
        '{"ground_set_size": 4, "k": 2, "sets": [[0, 1], [2, true]]}',
        '{"ground_set_size": 4, "k": 2, "sets": [[0, 1], [2, "3"]]}',
        '{"ground_set_size": 4, "k": 2.0, "sets": [[0, 1]]}',
        '{"ground_set_size": true, "k": 1, "sets": [[0]]}',
        '{"ground_set_size": 4, "k": 2, "sets": [[0, 1], 5]}',
    ],
)
def test_loader_rejects_non_integer_values(text):
    # int() would truncate 4.9 to 4 and 0.7 to 0, and read true as 1
    with pytest.raises(ValueError):
        family_from_dict(json.loads(text))


def _oracle_family_from_dict(data):
    # the per-row loader that the numpy loader replaced: one mask per row, checked as it is built
    try:
        ground_size = data["ground_set_size"]
        k = data["k"]
        rows = data["sets"]
        types = {type(ground_size), type(k)} | set(map(type, chain.from_iterable(rows)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family data: {exc}") from exc
    if types - {int}:
        raise ValueError(f"family data must be integers, got {sorted(t.__name__ for t in types - {int})}")
    masks = []
    for row in rows:
        if row and not 0 <= min(row) <= max(row) < ground_size:
            raise ValueError(f"row {row} leaves the ground set of size {ground_size}")
        mask = mask_from_elements(row)
        if mask.bit_count() != k or len(row) != k:
            raise ValueError(f"row {row} does not have cardinality k={k}")
        masks.append(mask)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate sets in family data")
    return SetFamily(ground_size, k, masks)


def _mutate(rng, data, n):
    """Break one row, or the header, in one of the ways the loader must refuse."""
    rows = data["sets"]
    kind = rng.choice(["bool", "float", "str", "negative", "past-n", "past-int64", "ragged", "repeat",
                       "duplicate", "empty-row", "header"])
    if kind == "header":
        key = rng.choice(["ground_set_size", "k"])
        data[key] = rng.choice([True, float(data[key]), str(data[key]), -1, 0])
        return
    if not rows:
        return
    i = rng.randrange(len(rows))
    row = rows[i]
    q = rng.randrange(len(row)) if row else None
    if kind == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), rng.sample(row, len(row)))
    elif kind == "ragged":
        rows[i] = row[:-1] if row and rng.random() < 0.5 else row + [rng.randrange(n)]
    elif kind == "empty-row":
        rows[i] = []
    elif q is not None and type(row[q]) is int:
        e = row[q]
        row[q] = {"bool": bool(e % 2), "float": float(e), "str": str(e), "negative": -1 - e,
                  "past-n": n + e, "past-int64": 2**63 + e * 2**40,
                  "repeat": row[q - 1]}[kind]


def _random_family_dict(rng):
    n = rng.choice([1, 2, 3, 5, 8, 9, 40, 64, 65, 130, 300])
    k = rng.randint(0, min(n, 5))
    size = rng.randint(0, 12)
    rows = []
    for _ in range(size):
        row = rng.sample(range(n), k)
        if sorted(row) not in [sorted(r) for r in rows]:
            rows.append(row)  # unsorted rows in no particular order
    data = {"ground_set_size": n, "k": k, "sets": rows}
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        _mutate(rng, data, n)
    return data


def _load_or_error(loader, data):
    try:
        return loader(copy.deepcopy(data))
    except ValueError as exc:
        return str(exc)


def test_loader_matches_per_row_oracle(tmp_path):
    rng = random.Random(2024)
    loaded = refused = 0
    for case in range(2000):
        data = _random_family_dict(rng)
        expected = _load_or_error(_oracle_family_from_dict, data)
        got = _load_or_error(family_from_dict, data)
        if isinstance(expected, str):
            assert got == expected, data
            refused += 1
            continue
        assert isinstance(got, SetFamily), (data, got)
        assert got.sets == expected.sets and got == expected and len(got) == len(expected)
        assert got.elements().dtype == expected.elements().dtype
        assert got.elements().tolist() == expected.elements().tolist()
        save_family(expected, tmp_path / "expected.json")
        save_family(got, tmp_path / "got.json")
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "expected.json").read_bytes()
        loaded += 1
    assert loaded > 500 and refused > 500


def test_ground_sets_up_to_two_to_the_63_are_held_as_uint64():
    # every element below 2^63 fits int64, as the loader reads it, and the uint64 element matrix
    n = 2**63
    loaded = family_from_dict({"ground_set_size": n, "k": 2, "sets": [[n - 1, 0]]})
    assert loaded.elements().dtype == np.uint64 and loaded.elements().tolist() == [[0, n - 1]]
    built = SetFamily(n, 1, [m(1)])
    assert built.elements().dtype == np.uint64 and built.sets == (m(1),)
    refused = re.escape(f"ground-set size must be in [1, 2**63], got {n + 1}")
    with pytest.raises(ValueError, match=refused):
        family_from_dict({"ground_set_size": n + 1, "k": 1, "sets": [[n]]})
    with pytest.raises(ValueError, match=refused):
        SetFamily(n + 1, 1, [m(1)])


def test_loaded_family_builds_masks_on_demand():
    fam = family_from_dict({"ground_set_size": 6, "k": 2, "sets": [[5, 0], [3, 1], [2, 1]]})
    assert fam._sets is None and len(fam) == 3
    assert fam.elements().tolist() == [[1, 2], [1, 3], [0, 5]] and not fam.elements().flags.writeable
    assert fam.sets == (m(1, 2), m(1, 3), m(0, 5)) and fam.sets is fam.sets


def test_loading_a_wide_ground_set_costs_only_its_rows(tmp_path):
    # each mask of element ~10**8 takes 12.5 MB; the element matrix takes 4 bytes a row
    path = tmp_path / "wide.json"
    path.write_text('{"ground_set_size": 100000000, "k": 1, "sets": [[99999999], [99999998], [99999997], [9]]}')
    assert len(path.read_bytes()) <= 96
    tracemalloc.start()
    try:
        fam = load_family(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert len(fam) == 4 and fam.elements()[:, 0].tolist() == [9, 99999997, 99999998, 99999999]


def test_family_to_dict_rows_sorted():
    fam = SetFamily(4, 2, [m(3, 1)])
    assert family_to_dict(fam)["sets"] == [[1, 3]]

