"""k-uniform set families over an integer ground set, with bitmask members.

Members are Python-int bitmasks over ground elements {0, ..., n-1}.  A
:class:`SetFamily` stores distinct k-element masks in ascending order; all
types here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .bitset import mask_from_elements, membership_matrix, pack_words


@dataclass(frozen=True)
class Sunflower:
    """A core plus petals whose pairwise intersections all equal the core.

    With a single petal the core is the petal itself; with p >= 2 petals the
    core also equals the intersection of all petals.
    """

    core: int
    petals: tuple[int, ...]


class SetFamily:
    """Distinct k-element sets over a common ground set, ascending by mask.

    Duplicate masks passed to the constructor are merged (identity is by
    value); the JSON loader, by contrast, rejects duplicate rows outright.
    The numpy kernels read the members through two matrices, each built on
    first use and cached: :meth:`holders`, a packed per-element member
    bitset, and :meth:`elements`, each member's elements in ascending order,
    which the spread layer's level counting and the extraction's partition
    search gather from.  The spread layer caches its per-level superset
    counts in ``_levels`` (:func:`sunflowers.spread.level_counts`).
    """

    __slots__ = ("ground_size", "k", "sets", "_holders", "_elements", "_levels")

    def __init__(self, ground_size: int, k: int, sets: Iterable[int]):
        if ground_size < 1:
            raise ValueError(f"ground-set size must be >= 1, got {ground_size}")
        if k < 0:
            raise ValueError(f"set size k must be >= 0, got {k}")
        masks = sorted(set(sets))
        for m in masks:
            if m < 0 or m.bit_length() > ground_size:
                raise ValueError(f"mask {m:#x} does not fit ground set of size {ground_size}")
            if m.bit_count() != k:
                raise ValueError(f"mask {m:#x} has {m.bit_count()} elements, expected k={k}")
        self.ground_size = ground_size
        self.k = k
        self.sets = tuple(masks)
        self._holders = None
        self._elements = None
        self._levels = {}

    def holders(self) -> np.ndarray:
        """Read-only ``(n, ceil(|F|/64))`` uint64 matrix; row e is the bitset of
        the members that contain ground element e (bit j of the row is
        ``sets[j]``, padding bits zero).  Built on first call, then cached.
        """
        if self._holders is None:
            holders = pack_words(membership_matrix(self.sets, self.ground_size).T)
            holders.setflags(write=False)
            self._holders = holders
        return self._holders

    def elements(self) -> np.ndarray:
        """Read-only ``(|F|, k)`` matrix whose row s holds the elements of
        ``sets[s]`` in ascending order, in the narrowest unsigned dtype that
        holds n - 1.  Built on first call, then cached.
        """
        if self._elements is None:
            columns = np.nonzero(membership_matrix(self.sets, self.ground_size))[1]
            elements = columns.astype(np.min_scalar_type(self.ground_size - 1))
            elements = elements.reshape(len(self.sets), self.k)
            elements.setflags(write=False)
            self._elements = elements
        return self._elements

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, mask: int) -> bool:
        return _bisect_contains(self.sets, mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.ground_size == other.ground_size
            and self.k == other.k
            and self.sets == other.sets
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self.k, self.sets))

    def __repr__(self) -> str:
        return f"SetFamily(ground_size={self.ground_size}, k={self.k}, size={len(self.sets)})"


def _bisect_contains(sorted_masks: Sequence[int], mask: int) -> bool:
    i = bisect.bisect_left(sorted_masks, mask)
    return i < len(sorted_masks) and sorted_masks[i] == mask


def is_sunflower(sets: Sequence[int]) -> Optional[Sunflower]:
    """Return the sunflower certified by ``sets``, or None.

    All pairwise intersections must coincide; the common value is the core.
    A single set is accepted as a 1-petal sunflower whose core is the set
    itself.  Raises on empty input or duplicate sets.
    """
    if not sets:
        raise ValueError("is_sunflower needs at least one set")
    if len(set(sets)) != len(sets):
        raise ValueError("duplicate sets passed to is_sunflower")
    if len(sets) == 1:
        return Sunflower(core=sets[0], petals=(sets[0],))
    core = sets[0] & sets[1]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j] != core:
                return None
    return Sunflower(core=core, petals=tuple(sets))


def link(family: SetFamily, t: int) -> SetFamily:
    """The family {S \\ T : S in family, T subset of S}, (k-|T|)-uniform.

    Distinct supersets of T yield distinct differences, so no members merge.
    """
    if t == 0:
        raise ValueError("link requires a non-empty set T")
    size_t = t.bit_count()
    if size_t > family.k:
        raise ValueError(f"|T|={size_t} exceeds family k={family.k}")
    kept = [s & ~t for s in family.sets if s & t == t]
    return SetFamily(family.ground_size, family.k - size_t, kept)


def find_disjoint_sets(
    sets: Sequence[int], p: int, spend: Optional[Callable[[], bool]] = None
) -> Optional[list[int]]:
    """First p pairwise-disjoint masks of ``sets``, by exhaustive backtracking.

    Candidates are tried in index order, so the result is the first disjoint
    p-subset in ``itertools.combinations(sets, p)`` order; None when there is
    none.  ``spend``, if given, is called once per candidate step; a False
    return gives up the current branch, so a budget that stays spent ends
    the whole search (with None).
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")

    def search(start: int, used: int, need: int) -> Optional[list[int]]:
        for j in range(start, len(sets)):
            if spend is not None and not spend():
                return None
            s = sets[j]
            if used & s:
                continue
            if need == 1:
                return [s]
            rest = search(j + 1, used | s, need - 1)
            if rest is not None:
                return [s] + rest
        return None

    return search(0, 0, p)


def check_budget(name: str, budget: object) -> None:
    """Reject a search budget that is not a non-negative int.

    The type must be exactly ``int``, as in ``family_from_dict``: a fraction
    would step past 0 and never stop its search, and ``bool`` is no count.
    """
    if type(budget) is not int or budget < 0:
        raise ValueError(f"{name} must be an int >= 0, got {budget!r}")


# --- JSON family format -----------------------------------------------------
#
# {"ground_set_size": n, "k": k, "sets": [[e1, ..., ek], ...]}
# with 0-based element lists; the writer emits each row sorted ascending.


def family_to_dict(family: SetFamily) -> dict:
    return {
        "ground_set_size": family.ground_size,
        "k": family.k,
        "sets": family.elements().tolist(),
    }


def family_from_dict(data: dict) -> SetFamily:
    """Strict loader: rejects non-integer values, duplicate rows and
    wrong-cardinality rows."""
    try:
        ground_size = data["ground_set_size"]
        k = data["k"]
        rows = data["sets"]
        types = {type(ground_size), type(k)} | set(map(type, chain.from_iterable(rows)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family data: {exc}") from exc
    if types - {int}:  # bool is a subclass of int, so test the exact type
        raise ValueError(f"family data must be integers, got {sorted(t.__name__ for t in types - {int})}")
    masks = []
    for row in rows:
        # range-check before building the mask: 1 << e allocates e bits
        if row and not 0 <= min(row) <= max(row) < ground_size:
            raise ValueError(f"row {row} leaves the ground set of size {ground_size}")
        mask = mask_from_elements(row)
        if mask.bit_count() != k or len(row) != k:
            raise ValueError(f"row {row} does not have cardinality k={k}")
        masks.append(mask)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate sets in family data")
    return SetFamily(ground_size, k, masks)


def save_family(family: SetFamily, path) -> None:
    Path(path).write_text(json.dumps(family_to_dict(family), sort_keys=True, indent=2) + "\n")


def load_family(path) -> SetFamily:
    return family_from_dict(json.loads(Path(path).read_text()))

