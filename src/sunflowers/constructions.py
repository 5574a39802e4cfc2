"""Transversal (block-product) families and their exact hit probabilities.

The ground set {0, ..., rk-1} splits into k blocks V_i = {i*r, ..., (i+1)*r - 1};
the family consists of all r^k sets picking exactly one element per block.
The block layout is fixed so constructions are byte-reproducible.

The same construction with r = p-1 is the classical Erdos-Rado family: it has
(p-1)^k members and no sunflower with p petals.  In a sunflower of
transversals, each block is either unanimous (two petals agreeing on an
element put it in the core, forcing all petals to contain it) or its choices
are pairwise distinct; p pairwise-distinct choices never fit in a width-(p-1)
block, so every block would be unanimous and the petals could not be
distinct.

A Bernoulli-delta random subset covers some transversal iff it meets every
block, and blocks are disjoint, so the exact hit probability factorizes as
(1 - (1-delta)^r)^k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .families import SetFamily

# refuse to materialize more than this many sets
FAMILY_SIZE_CAP = 1 << 24


@dataclass(frozen=True)
class BlockPartition:
    """k disjoint blocks of r consecutive elements each."""

    k: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "r", operator.index(self.r))
        if self.k < 1 or self.r < 1:
            raise ValueError(f"need k >= 1 and r >= 1, got k={self.k}, r={self.r}")

    @property
    def ground_size(self) -> int:
        return self.k * self.r

    @property
    def blocks(self) -> tuple[int, ...]:
        base = (1 << self.r) - 1
        return tuple(base << (i * self.r) for i in range(self.k))


def block_product_family(k: int, r: int) -> tuple[SetFamily, BlockPartition]:
    """The family of all r^k transversals of the k-by-r block partition."""
    partition = BlockPartition(k, r)
    size = partition.r**partition.k
    if size > FAMILY_SIZE_CAP:
        raise ValueError(f"r^k = {size} exceeds the family-size cap {FAMILY_SIZE_CAP}")
    dtype = np.min_scalar_type(partition.ground_size - 1)
    # row (c_0, ..., c_{k-1}) holds i*r + c_i; colex order varies c_{k-1} slowest
    elements = np.empty((size, k), dtype=dtype)
    elements[:] = np.indices((r,) * k, dtype=dtype).reshape(k, size)[::-1].T
    elements += np.arange(0, partition.ground_size, r, dtype=dtype)
    return SetFamily._from_elements(partition.ground_size, k, elements), partition


def erdos_rado_family(p: int, k: int) -> SetFamily:
    """The (p-1)^k-member family with no p-petal sunflower (width p-1 transversals)."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return block_product_family(k, p - 1)[0]


def exact_block_hit_probability(k: int, r: int, delta: float) -> float:
    """(1 - (1-delta)^r)^k: the chance a Bernoulli-delta subset meets every block."""
    BlockPartition(k, r)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    return (1.0 - (1.0 - delta) ** r) ** k


def in_tightness_regime(k: int, r: int, delta: float, eps: float) -> bool:
    """True iff r <= 0.25 * (1/delta) * ln(k/eps).

    In this range the width-r transversal family keeps the hit probability
    below 1 - eps even though it is exactly r-spread with r^k members.
    Natural logarithm throughout.
    """
    k, r = operator.index(k), operator.index(r)
    if k < 1 or r < 1:
        raise ValueError(f"need k >= 1 and r >= 1, got k={k}, r={r}")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    if not 0.0 < eps <= 0.5:
        raise ValueError(f"eps must be in (0, 1/2], got {eps}")
    return r <= 0.25 * math.log(k / eps) / delta
