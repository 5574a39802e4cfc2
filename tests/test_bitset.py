from hypothesis import given, strategies as st

from sunflowers.bitset import elements_of, mask_from_elements


def test_mask_roundtrip_basic():
    assert mask_from_elements([0, 2, 5]) == 0b100101
    assert elements_of(0b100101) == (0, 2, 5)
    assert mask_from_elements([]) == 0
    assert elements_of(0) == ()


@given(st.sets(st.integers(min_value=0, max_value=80)))
def test_mask_roundtrip(elements):
    assert set(elements_of(mask_from_elements(elements))) == elements
