"""Counter-based randomness: Philox streams keyed by (seed, stream id).

Every sampler in the package reads uniforms through :func:`uniform_block`,
which gives trial t the stream positions [t*width, (t+1)*width).  A trial's
randomness is therefore a pure function of (seed, stream, trial index,
element index): results are bit-identical for a fixed seed regardless of
chunking, thread count, or evaluation order, and any single trial can be
reproduced in O(1) via the Philox skip-ahead.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 1729

# Fixed stream ids keep independent experiment kinds decorrelated under a
# shared seed.  Renumbering one changes every seeded output drawn from it, so
# a retired id (2) stays unused.
STREAM_BERNOULLI = 1
STREAM_PARTITION = 3
STREAM_SPREAD_SEARCH = 4
STREAM_GENERALIZED = 5

_MASK64 = (1 << 64) - 1
_WORDS_PER_BLOCK = 4  # Philox-4x64 emits four 64-bit words per counter tick


def _key(seed: int, stream: int) -> np.ndarray:
    return np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)


def uniform_block(seed: int, stream: int, first_trial: int, trials: int, width: int) -> np.ndarray:
    """Uniform [0,1) draws for ``trials`` consecutive trials, one row each.

    Row i equals the row for trial ``first_trial + i`` in any other chunking
    of the same (seed, stream).
    """
    if trials < 0 or width < 0 or first_trial < 0:
        raise ValueError("first_trial, trials and width must be non-negative")
    position = first_trial * width
    bitgen = np.random.Philox(key=_key(seed, stream))
    bitgen.advance(position // _WORDS_PER_BLOCK)  # advance counts whole 4-word blocks
    gen = np.random.Generator(bitgen)
    skip = position % _WORDS_PER_BLOCK
    flat = gen.random(skip + trials * width)
    return flat[skip:].reshape(trials, width)

