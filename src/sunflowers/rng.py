"""Counter-based randomness: Philox streams keyed by (seed, stream id).

Every sampler in the package reads uniforms through :func:`uniform_block`,
which gives trial t the stream positions [t*width, (t+1)*width).  A trial's
randomness is therefore a pure function of (seed, stream, trial index,
element index): results are bit-identical for a fixed seed regardless of
chunking, thread count, or evaluation order, and any single trial can be
reproduced in O(1) via the Philox skip-ahead.

Bernoulli(delta) samples come from :func:`bernoulli_block` (sampling-stream
version 2), which compares 48 lanes of one uniform word at a time against
delta's binary digits and returns the rows packed, 8 elements per byte.
"""

from __future__ import annotations

import math
import operator
import threading

import numpy as np

DEFAULT_SEED = 1729

# The version of the Bernoulli sampling stream: bumped whenever a seeded
# Bernoulli row changes.  Version 1 drew one uniform per element and compared
# it with delta; version 2 is the bit-sliced comparator of bernoulli_block.
SAMPLING_STREAM_VERSION = 2

# Fixed stream ids keep independent experiment kinds decorrelated under a
# shared seed.  Renumbering one changes every seeded output drawn from it, so
# a retired id (2) stays unused.  Bernoulli level l of stream s reads stream
# id s + (l << 32), which no fixed id reaches.
STREAM_BERNOULLI = 1
STREAM_PARTITION = 3
STREAM_SPREAD_SEARCH = 4
STREAM_GENERALIZED = 5

_MASK64 = (1 << 64) - 1
_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter tick

_LANES = 48  # lanes per uniform word: the low 48 of its 53 bits, six whole bytes
_PREFIX_LEVELS = 8  # digits of delta compared lane by lane before the exact tail
_ALL_LANES = np.uint64((1 << _LANES) - 1)
_GRID = 2.0**53  # a uniform is an integer multiple of 1/_GRID

_local = threading.local()  # one reusable Philox generator per thread, re-keyed per call


def check_seed(seed: int) -> int:
    """``seed`` as an int, refused outside [0, 2^64): it is a 64-bit key word."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _check_tile(first_trial: int, trials: int, width: int) -> None:
    """Refuse negative arguments, and a tile of more entries than numpy can index."""
    if trials < 0 or width < 0 or first_trial < 0:
        raise ValueError("first_trial, trials and width must be non-negative")
    if int(trials) * int(width) > np.iinfo(np.intp).max:
        raise ValueError(f"a tile of {trials} x {width} entries exceeds numpy's index range")


def uniform_block(seed: int, stream: int, first_trial: int, trials: int, width: int) -> np.ndarray:
    """Uniform [0,1) draws for ``trials`` consecutive trials, one row each.

    Row i equals the row for trial ``first_trial + i`` in any other chunking
    of the same (seed, stream).  The seed lies in [0, 2^64) (:func:`check_seed`).
    """
    seed = check_seed(seed)
    _check_tile(first_trial, trials, width)
    position = int(first_trial) * int(width)
    bitgen = getattr(_local, "philox", None)
    if bitgen is None:
        bitgen = _local.philox = np.random.Philox(0)
    # jump straight to the 4-word block holding ``position``: Philox counts blocks
    block = position // _WORDS_PER_BLOCK
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([block >> s & _MASK64 for s in (0, 64, 128, 192)], dtype=np.uint64),
            "key": np.array([seed, stream & _MASK64], dtype=np.uint64),
        },
        "buffer": np.zeros(_WORDS_PER_BLOCK, dtype=np.uint64),
        "buffer_pos": _WORDS_PER_BLOCK,
        "has_uint32": 0,
        "uinteger": 0,
    }
    skip = position % _WORDS_PER_BLOCK
    flat = np.random.Generator(bitgen).random(skip + trials * width)
    return flat[skip:].reshape(trials, width)


def bernoulli_block(
    seed: int, stream: int, first_trial: int, trials: int, width: int, delta: float
) -> np.ndarray:
    """Exact Bernoulli(``delta``) rows for ``trials`` consecutive trials, packed.

    Returns ``uint8 (trials, ceil(width/8))``: bit j of byte i is element
    8i + j, and the padding bits past ``width`` are clear.  Each element is 1
    with probability exactly ``delta``, for every double in (0, 1).

    Element e is lane e % 48 of word e // 48.  Level l reads one uniform per
    (trial, word) from stream ``stream + (l << 32)``; the low 48 bits of its
    53-bit integer are the lanes' l-th binary digits of a uniform U, compared
    with digit l+1 of delta until U < delta or U > delta is settled (Knuth and
    Yao's bit-by-bit comparison).  Levels run to delta's last 1-digit, at most
    8 of them; lanes still tied after 8 levels go to :func:`_settle_tail`.
    Row i depends only on (seed, stream, first_trial + i, width, delta), so
    chunking is invisible as in :func:`uniform_block`.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    _check_tile(first_trial, trials, width)
    words = -(-width // _LANES)
    numerator, denominator = float(delta).as_integer_ratio()
    last = denominator.bit_length() - 1  # position of delta's last binary 1-digit

    def uniforms(level, start=0, count=trials):  # rows start .. start+count-1 of level ``level``
        return uniform_block(seed, stream + (level << 32), first_trial + start, count, words)

    eq = np.full((trials, words), _ALL_LANES, dtype=np.uint64)  # lanes still tied with delta
    if words:
        eq[:, -1] = (1 << (width - _LANES * (words - 1))) - 1  # padding lanes start settled at 0
    lt = np.zeros_like(eq)  # lanes settled at U < delta
    for level in range(min(last, _PREFIX_LEVELS)):
        if level and not eq.any():
            break
        u = uniforms(level)
        r = np.multiply(u, _GRID, out=u).astype(np.uint64)  # lanes past bit 47 meet only clear eq bits
        if numerator >> (last - level - 1) & 1:  # lt |= eq & ~r; eq &= r
            np.bitwise_and(r, eq, out=r)
            lt |= np.bitwise_xor(eq, r, out=eq)
            eq = r
        else:
            eq &= np.invert(r, out=r)
    if last > _PREFIX_LEVELS:
        _settle_tail(eq, lt, math.ldexp(delta, _PREFIX_LEVELS) % 1.0, uniforms)
    # byte i of a row is byte i % 6 of word i // 6 (little-endian)
    byte = np.arange(-(-width // 8))
    word_bytes = lt.astype("<u8", copy=False).view(np.uint8).reshape(trials, 8 * words)
    return word_bytes[:, byte // 6 * 8 + byte % 6]


def _settle_tail(eq: np.ndarray, lt: np.ndarray, rest: float, uniforms) -> None:
    """Settle into ``lt`` the lanes of ``eq`` still tied after the prefix levels.

    A tied lane is 1 iff the rest U' of its uniform satisfies U' < ``rest``,
    the fraction of delta past the prefix digits.  Each round reads the next
    level, ``uniforms(level, start, count)`` over the rows that still have a
    tie, one u = m / 2^53 per (trial, word), and settles the word's lowest
    tied lane by u < rest.  That is exact except on the grid tie
    m = floor(rest * 2^53) with rest off the 2^-53 grid (probability
    2^-53): there U' < rest iff the rest of U' is below frac(rest * 2^53), so
    the lane stays tied against that fraction.
    """
    words = eq.shape[1]
    flat_lt = lt.reshape(-1)
    tied = np.flatnonzero(eq)  # (trial, word) positions with a tied lane
    lanes = eq.reshape(-1)[tied]
    against = np.full(tied.size, rest)  # what each position's lowest tied lane is compared with
    level = _PREFIX_LEVELS
    while tied.size:
        start = int(tied[0]) // words
        u = uniforms(level, start, int(tied[-1]) // words + 1 - start).reshape(-1)[tied - start * words]
        level += 1
        lowest = lanes & (~lanes + np.uint64(1))
        scaled = against * _GRID
        grid = np.floor(scaled)
        grid_tie = (u * _GRID == grid) & (scaled != grid)
        flat_lt[tied] |= np.where((u < against) & ~grid_tie, lowest, np.uint64(0))
        lanes ^= np.where(grid_tie, np.uint64(0), lowest)
        against = np.where(grid_tie, scaled - grid, rest)
        keep = lanes != 0
        tied, lanes, against = tied[keep], lanes[keep], against[keep]
