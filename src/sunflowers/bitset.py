"""Bit-vector sets: Python-int masks and packed uint64 bit matrices.

Bit i set means ground element i is present.  Python ints are arbitrary
width, so any ground-set size is representable.  The numpy kernels work on
bit matrices packed into little-endian uint64 words, scattered from (row,
column) pairs by :func:`bit_matrix`, so they too take any ground size and
any number of sets.  One byte budget, ``_KERNEL_TILE_BYTES``, bounds the
tiles of every numpy kernel in the package.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

# bytes per tile of the samplers' packed rows (not of the Bernoulli sampler's working set, about 45 bytes
# per trial and 48-element word), the containment kernel's two (trials, words) buffers and its wider
# tables, and a spread level's dense histogram and the ranks of each of its tiles
_KERNEL_TILE_BYTES = 1 << 20


def mask_from_elements(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """The elements of a mask in ascending order, in time linear in its bit
    length plus its popcount: one binary string, scanned by ``str.find``."""
    if mask < 0:
        raise ValueError(f"a mask must be non-negative, got {mask}")
    bits = bin(mask)[:1:-1]  # bit i at index i
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return tuple(out)


def bit_matrix(rows: np.ndarray, columns: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The ``(shape[0], ceil(shape[1]/64))`` uint64 matrix with bit
    (rows[i, q], columns[i, q]) set for every pair of the two broadcast 2-D
    arrays, and no other: column c lands in word c // 64 at bit c % 64.
    Pairs are scattered one q at a time, so temporaries stay one column long.
    """
    words = -(-shape[1] // 64)
    out = np.zeros(shape[0] * words, dtype=np.uint64)
    rows, columns = np.broadcast_arrays(rows, columns)
    for q in range(rows.shape[1]):
        r, c = rows[:, q].astype(np.intp), columns[:, q].astype(np.intp)
        np.bitwise_or.at(out, r * words + (c >> 6), np.uint64(1) << (c & 63).astype(np.uint64))
    return out.reshape(shape[0], words)
