import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sunflowers.bitset import mask_from_elements
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


@given(distinct_ksets(min_sets=1, max_sets=6), st.data())
def test_link_cardinality_and_roundtrip(sets, data):
    k = sets[0].bit_count()
    fam = SetFamily(10, k, sets)
    t = data.draw(st.integers(min_value=1, max_value=(1 << 10) - 1).filter(lambda x: x.bit_count() <= k))
    linked = link(fam, t)
    assert len(linked) == sum(1 for s in fam.sets if s & t == t)
    for stripped in linked.sets:
        assert (stripped | t) in fam.sets


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


def test_family_to_dict_rows_sorted():
    fam = SetFamily(4, 2, [m(3, 1)])
    assert family_to_dict(fam)["sets"] == [[1, 3]]

