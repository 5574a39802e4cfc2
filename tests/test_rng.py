import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2

from sunflowers import rng
from sunflowers.rng import (
    SAMPLING_STREAM_VERSION,
    STREAM_BERNOULLI,
    STREAM_GENERALIZED,
    STREAM_PARTITION,
    STREAM_SPREAD_SEARCH,
    bernoulli_block,
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


def test_rows_are_the_keyed_philox_stream_read_from_the_start():
    cases = ((0, 1, 0, 3, 5), (7, 3, 13, 4, 3), (2**64 - 1, 5 + (9 << 32), 1001, 2, 9))
    for seed, stream, first, trials, width in cases:
        key = np.array([seed, stream], dtype=np.uint64)
        values = np.random.Generator(np.random.Philox(key=key)).random((first + trials) * width)
        rows = uniform_block(seed, stream, first, trials, width)
        assert np.array_equal(rows.ravel(), values[first * width :])


def test_concurrent_threads_read_their_own_rows():
    # each thread re-keys its own generator per call, so interleaved calls
    # from more threads than cores still return every row unchanged
    jobs = [(seed, stream, first, 50, 7) for seed in (1, 2) for stream in (1, 3, 1 << 32) for first in (0, 9)]
    expected = [uniform_block(*job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda job: uniform_block(*job), jobs * 20))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got, want) for got, want in zip(results, expected * 20))


def test_seeds_must_be_64_bit_integers():
    # -1 and 2**64 used to wrap onto the streams of 2**64 - 1 and 0
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(ValueError, match="seed must be in"):
            uniform_block(seed, 1, 0, 1, 4)
    with pytest.raises(TypeError):
        uniform_block(1.0, 1, 0, 1, 4)
    assert np.array_equal(uniform_block(np.uint64(2**64 - 1), 1, 0, 2, 4), uniform_block(2**64 - 1, 1, 0, 2, 4))


def test_streams_and_seeds_decorrelate():
    a = uniform_block(5, 1, 0, 4, 8)
    assert not np.array_equal(a, uniform_block(5, 2, 0, 4, 8))
    assert not np.array_equal(a, uniform_block(6, 1, 0, 4, 8))
    assert np.array_equal(a, uniform_block(5, 1, 0, 4, 8))


def test_stream_ids_are_pinned():
    # renumbering a stream would silently change every seeded output drawn from it
    assert (STREAM_BERNOULLI, STREAM_PARTITION, STREAM_SPREAD_SEARCH, STREAM_GENERALIZED) == (1, 3, 4, 5)


def test_sampling_stream_version_is_pinned():
    # a change to any Bernoulli row must bump the version and this digest together
    assert SAMPLING_STREAM_VERSION == 2
    digest = hashlib.sha256()
    for seed in (1, 1729):
        for delta in (1 / 2, 1 / 8, 0.3, 1e-5, 1 - 2.0**-53):
            for width in (1, 24, 64, 130):
                for first, trials in ((0, 333), (5000, 17)):
                    rows = bernoulli_block(seed, STREAM_BERNOULLI, first, trials, width, delta)
                    digest.update(rows.tobytes())
    assert digest.hexdigest() == "0f6ccc5fe66c915cf0abe071758f9beb986f1dfa21aa5ef99142a5b892d56082"


# --- the bit-sliced Bernoulli sampler (sampling-stream version 2) -------------

ORACLE_DELTAS = (1 / 2, 1 / 4, 1 / 8, 3 / 8, 0.3, 1 / 6, 0.9, 1e-5, 3 * 2.0**-62, 1 - 2.0**-53)
ORACLE_WIDTHS = (1, 7, 8, 47, 48, 49, 64, 96, 97, 130)


def _oracle_rows(seed, stream, first_trial, trials, width, delta):
    """bernoulli_block in plain Python: each lane's uniform bits, read from the
    same uniform_block words, compared one by one with the binary digits of
    Fraction(delta).  Lane b of word w (element 48w + b) reads bit b of word
    w at levels 0..7; a lane still tied there reads the 53-bit words of the
    next unused levels, most significant bit first, lanes in ascending order."""
    digits, x = [], Fraction(delta)
    while x:
        digits.append(int(x * 2))
        x = x * 2 - digits[-1]
    words = -(-width // 48)
    levels = {}

    def word(level, t, w):
        if level not in levels:
            u = uniform_block(seed, stream + (level << 32), first_trial, trials, words)
            levels[level] = [[int(v * 2**53) for v in row] for row in u]
        return levels[level][t][w]

    def compare(bits, position):
        # -1: U < delta settled, +1: U > delta settled (or delta's digits ran out), 0: tied
        for bit in bits:
            if position >= len(digits):
                return 1  # U's remaining bits are >= delta's, which are all 0
            if bit != digits[position]:
                return -1 if bit < digits[position] else 1
            position += 1
        return 0

    out = []
    for t in range(trials):
        row = 0
        for w in range(words):
            level = 8
            for b in range(min(48, width - 48 * w)):
                verdict = compare([word(lv, t, w) >> b & 1 for lv in range(8)], 0)
                position = 8
                while verdict == 0:
                    verdict = compare([word(level, t, w) >> i & 1 for i in range(52, -1, -1)], position)
                    level, position = level + 1, position + 53
                if verdict < 0:
                    row |= 1 << (48 * w + b)
        out.append(list(row.to_bytes(-(-width // 8), "little")))
    return out


@pytest.mark.parametrize("delta", ORACLE_DELTAS, ids=lambda d: f"{d!r}")
def test_bernoulli_rows_match_bit_serial_oracle(delta):
    # trial counts 1..300 across the widths, each block starting mid-stream
    for i, width in enumerate(ORACLE_WIDTHS):
        trials = (1, 300, 2, 131, 7, 64, 3, 255, 40, 97)[i]
        first = 37 * i
        got = bernoulli_block(13, STREAM_BERNOULLI, first, trials, width, delta)
        assert got.dtype == np.uint8 and got.shape == (trials, -(-width // 8))
        assert got.tolist() == _oracle_rows(13, STREAM_BERNOULLI, first, trials, width, delta), width


@pytest.mark.parametrize("delta", (1 / 2, 1 / 8, 0.3, 1 / 6, 0.9, 1 / 3 + 2.0**-40))
def test_bernoulli_bit_frequencies_pass_chi_square(delta):
    trials, width = 20_000, 97
    bits = np.unpackbits(bernoulli_block(29, 1, 0, trials, width, delta), axis=1, count=width,
                         bitorder="little").astype(np.int64)
    # each element's count of ones is Binomial(trials, delta)
    ones = bits.sum(axis=0)
    statistic = float(np.sum((ones - trials * delta) ** 2) / (trials * delta * (1 - delta)))
    assert chi2.sf(statistic, width) > 1e-4
    # adjacent lanes (the same uniform word) and word-boundary neighbours are independent
    for left in (0, 46, 47):
        cells = np.bincount(2 * bits[:, left] + bits[:, left + 1], minlength=4)
        p = np.array([(1 - delta) ** 2, (1 - delta) * delta, delta * (1 - delta), delta**2])
        statistic = float(np.sum((cells - trials * p) ** 2 / (trials * p)))
        assert chi2.sf(statistic, 3) > 1e-4


@pytest.mark.parametrize("delta", (1 / 4, 0.3, 1e-5))
@pytest.mark.parametrize("width", (5, 48, 130))
def test_bernoulli_chunking_is_invisible(delta, width):
    full = bernoulli_block(3, 1, 0, 1000, width, delta)
    parts = np.concatenate([bernoulli_block(3, 1, 0, 400, width, delta),
                            bernoulli_block(3, 1, 400, 600, width, delta)])
    assert np.array_equal(full, parts)
    for t in (0, 399, 400, 999):
        assert np.array_equal(bernoulli_block(3, 1, t, 1, width, delta)[0], full[t])


@pytest.mark.parametrize("width", (1, 7, 9, 47, 49, 63, 97, 130))
def test_bernoulli_padding_bits_are_clear(width):
    rows = bernoulli_block(4, 1, 0, 500, width, 1 - 2.0**-53)
    assert rows.shape == (500, -(-width // 8))
    assert not np.any(rows[:, -1] >> (width - 8 * (rows.shape[1] - 1)))  # no bit past element width-1
    assert np.unpackbits(rows, axis=1, count=width, bitorder="little").mean() > 0.99


def test_bernoulli_rejects_bad_arguments():
    for delta in (0.0, 1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="delta"):
            bernoulli_block(1, 1, 0, 4, 8, delta)
    with pytest.raises(ValueError):
        bernoulli_block(1, 1, -1, 4, 8, 0.5)
    assert bernoulli_block(1, 1, 0, 0, 8, 0.5).shape == (0, 1)
    assert bernoulli_block(1, 1, 0, 3, 0, 0.5).shape == (3, 0)


def test_tail_grid_tie_keeps_the_lane_tied_against_the_rest_of_delta():
    # rest = 1.5 / 2^53 lies off the grid: u = 1/2^53 ties on the grid, and the
    # lane is then compared with the remaining fraction 0.5 at the next level
    rest, grid = 3 * 2.0**-54, 2.0**-53
    words = [0b111, 0b1, 0b1, 0b1]  # trial 0 ties three lanes; trials 1-3 one lane each
    levels = {
        8: [grid, grid, 0.0, 2 * grid],  # tie, tie, 0 < rest, 2/2^53 > rest
        9: [0.25, 0.5, 0.9, 0.9],  # 0.25 < 0.5 settles lane 0 at 1; 0.5 settles trial 1 at 0
        10: [grid, 0.9, 0.9, 0.9],  # trial 0 lane 1 against rest again: a fresh grid tie
        11: [0.0, 0.9, 0.9, 0.9],  # ... settled at 1 by 0 < 0.5
        12: [0.99, 0.9, 0.9, 0.9],  # trial 0 lane 2: 0.99 > rest, settled at 0
    }
    read = []

    def uniforms(level, start, count):
        read.append((level, start, count))
        return np.array(levels[level][start : start + count]).reshape(count, 1)

    eq = np.array(words, dtype=np.uint64).reshape(4, 1)
    lt = np.zeros_like(eq)
    rng._settle_tail(eq, lt, rest, uniforms)
    assert lt.ravel().tolist() == [0b011, 0, 1, 0]
    # each level is read over the rows that still have a tie
    assert read == [(8, 0, 4), (9, 0, 2), (10, 0, 1), (11, 0, 1), (12, 0, 1)]


def test_tail_on_grid_rest_needs_no_tie():
    # rest on the 2^-53 grid: u == rest means U' >= rest, settled at 0 at once
    eq = np.array([[1], [1]], dtype=np.uint64)
    lt = np.zeros_like(eq)
    uniforms = np.array([[0.5], [0.5 - 2.0**-53]])
    rng._settle_tail(eq, lt, 0.5, lambda level, start, count: uniforms[start : start + count])
    assert lt.ravel().tolist() == [0, 1]



def test_negative_block_bounds_are_refused():
    with pytest.raises(ValueError, match="first_trial, trials and width must be non-negative"):
        uniform_block(1, 1, -1, 1, 4)


@pytest.mark.parametrize("trials, width", [(1, 2**63), (2, 2**62), (2**40, 2**23)])
def test_tiles_past_numpy_index_range_are_refused(trials, width):
    # refused before any allocation, with a message that names the row width
    message = f"a tile of {trials} x {width} entries exceeds numpy's index range"
    with pytest.raises(ValueError, match=message):
        uniform_block(1, 1, 0, trials, width)
    with pytest.raises(ValueError, match=message):
        bernoulli_block(1, 1, 0, trials, width, 0.5)
