"""Bit-vector sets: Python-int masks and their packed uint64 word form.

Bit i set means ground element i is present.  Python ints are arbitrary
width, so any ground-set size is representable.  The numpy kernels work on
boolean rows packed into little-endian uint64 words (:func:`pack_words`), so
they too take any ground size and any number of sets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


def mask_from_elements(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    """The elements of a mask in ascending order, in time linear in its bit
    length plus its popcount: one binary string, scanned by ``str.find``."""
    bits = bin(mask)[:1:-1]  # bit i at index i
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(i)
        i = bits.find("1", i + 1)
    return tuple(out)


def membership_matrix(masks: Sequence[int], width: int) -> np.ndarray:
    """Boolean ``(len(masks), width)`` matrix: entry (i, e) is bit e of masks[i]."""
    nbytes = -(-width // 8)
    raw = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), nbytes), axis=1, count=width, bitorder="little").view(bool)


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Boolean rows ``(r, c)`` as ``(r, ceil(c/64))`` uint64 words.

    Column j lands in word j // 64 at bit j % 64; the padding bits of the
    last word are zero.
    """
    rows, cols = bits.shape
    packed = np.zeros((rows, 8 * -(-cols // 64)), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)
