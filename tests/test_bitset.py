import time

import pytest
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


def test_elements_of_is_linear_in_bit_length():
    # shifting the whole int once per bit took minutes at this width
    start = time.process_time()
    assert elements_of((1 << 2_000_000) | 1) == (0, 2_000_000)
    assert time.process_time() - start < 2.0


@pytest.mark.parametrize("mask", [-1, -6, -(1 << 70)])
def test_elements_of_refuses_negative_masks(mask):
    # bin(-6) is '-0b110': read as bits it was once {1, 2}
    with pytest.raises(ValueError, match="non-negative"):
        elements_of(mask)
