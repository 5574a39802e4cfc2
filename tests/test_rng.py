import numpy as np

from sunflowers.rng import (
    STREAM_BERNOULLI,
    STREAM_GENERALIZED,
    STREAM_PARTITION,
    STREAM_SPREAD_SEARCH,
    uniform_block,
)


def test_trial_rows_match_batch_rows():
    full = uniform_block(seed=7, stream=3, first_trial=0, trials=40, width=13)
    for t in (0, 1, 7, 39):
        assert np.array_equal(uniform_block(7, 3, t, 1, 13)[0], full[t])


def test_chunking_is_invisible():
    full = uniform_block(seed=11, stream=1, first_trial=0, trials=100, width=6)
    parts = np.concatenate(
        [uniform_block(11, 1, start, 25, 6) for start in (0, 25, 50, 75)], axis=0
    )
    assert np.array_equal(full, parts)


def test_streams_and_seeds_decorrelate():
    a = uniform_block(5, 1, 0, 4, 8)
    assert not np.array_equal(a, uniform_block(5, 2, 0, 4, 8))
    assert not np.array_equal(a, uniform_block(6, 1, 0, 4, 8))
    assert np.array_equal(a, uniform_block(5, 1, 0, 4, 8))


def test_stream_ids_are_pinned():
    # renumbering a stream would silently change every seeded output drawn from it
    assert (STREAM_BERNOULLI, STREAM_PARTITION, STREAM_SPREAD_SEARCH, STREAM_GENERALIZED) == (1, 3, 4, 5)
