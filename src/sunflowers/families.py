"""k-uniform set families over an integer ground set, with bitmask members.

Members are Python-int bitmasks over ground elements {0, ..., n-1}.  A
:class:`SetFamily` stores distinct k-element masks in ascending order; all
types here are immutable after construction and safe to share across
threads.  Families imported from named-element data are re-indexed to dense
integer indices with a stored name table (see :func:`family_from_named`).
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Hashable, Iterable, Optional, Sequence

import numpy as np

from .bitset import elements_of, mask_from_elements, membership_matrix, pack_words


@dataclass(frozen=True)
class GroundSet:
    """The ground set {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"ground-set size must be >= 1, got {self.size}")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1


@dataclass(frozen=True)
class Sunflower:
    """A core plus petals whose pairwise intersections all equal the core.

    With a single petal the core is the petal itself; with p >= 2 petals the
    core also equals the intersection of all petals.
    """

    core: int
    petals: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.petals)


class SetFamily:
    """Distinct k-element sets over a common ground set, ascending by mask.

    Duplicate masks passed to the constructor are merged (identity is by
    value); the JSON loader, by contrast, rejects duplicate rows outright.
    The numpy kernels read the members through :meth:`holders`, a packed
    per-element member bitset built on first use and cached; the spread layer
    caches its per-level superset counts in ``_levels``
    (:func:`sunflowers.spread.level_counts`).
    """

    __slots__ = ("ground_size", "k", "sets", "_holders", "_levels")

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
        self._levels = None

    @property
    def ground(self) -> GroundSet:
        return GroundSet(self.ground_size)

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

    def element_rows(self) -> list[list[int]]:
        return [list(elements_of(m)) for m in self.sets]

    @classmethod
    def from_element_rows(cls, ground_size: int, k: int, rows: Iterable[Iterable[int]]) -> "SetFamily":
        return cls(ground_size, k, (mask_from_elements(row) for row in rows))

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


# --- JSON family format -----------------------------------------------------
#
# {"ground_set_size": n, "k": k, "sets": [[e1, ..., ek], ...]}
# with 0-based element lists; the writer emits each row sorted ascending.


def family_to_dict(family: SetFamily) -> dict:
    return {
        "ground_set_size": family.ground_size,
        "k": family.k,
        "sets": family.element_rows(),
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
        mask = mask_from_elements(row)
        if mask.bit_count() != k or len(row) != k:
            raise ValueError(f"row {row} does not have cardinality k={k}")
        if mask.bit_length() > ground_size or any(e < 0 for e in row):
            raise ValueError(f"row {row} leaves the ground set of size {ground_size}")
        masks.append(mask)
    if len(set(masks)) != len(masks):
        raise ValueError("duplicate sets in family data")
    return SetFamily(ground_size, k, masks)


def save_family(family: SetFamily, path) -> None:
    Path(path).write_text(json.dumps(family_to_dict(family), sort_keys=True, indent=2) + "\n")


def load_family(path) -> SetFamily:
    return family_from_dict(json.loads(Path(path).read_text()))


def family_from_named(rows: Iterable[Iterable[Hashable]]) -> tuple[SetFamily, tuple[Hashable, ...]]:
    """Re-index named-element sets to dense integer indices.

    Names are assigned indices in order of first appearance; the returned
    table maps index -> name.  All rows must share one cardinality.
    """
    table: dict[Hashable, int] = {}
    masks = []
    sizes = set()
    for row in rows:
        row = list(row)
        sizes.add(len(row))
        mask = 0
        for name in row:
            if name not in table:
                table[name] = len(table)
            mask |= 1 << table[name]
        if mask.bit_count() != len(row):
            raise ValueError(f"row {row} repeats an element")
        masks.append(mask)
    if not masks:
        raise ValueError("no sets given")
    if len(sizes) != 1:
        raise ValueError(f"rows have mixed cardinalities {sorted(sizes)}")
    names = tuple(sorted(table, key=table.get))
    return SetFamily(max(len(table), 1), sizes.pop(), masks), names
