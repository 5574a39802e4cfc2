"""k-uniform set families over an integer ground set, held as element matrices.

Members are sets of ground elements {0, ..., n-1}.  A :class:`SetFamily`
holds distinct k-element sets as one ``(|F|, k)`` matrix of their elements,
rows ascending and in colex (ascending-mask) order, whether it was built from
Python-int bitmasks or loaded from JSON.  The matrix alone decides equality,
hashing and membership; the masks are a view of it, built for the callers
that work on masks.  All types here are immutable after construction (their
caches aside) and thread-safe.  :func:`load_family` reads a canonical file,
as :func:`save_family` writes it, by one numpy pass over its bytes; every
file that pass does not accept, so every invalid one, goes through
``json.loads``, and every refusal message is that route's.
"""

from __future__ import annotations

import bisect
import json
import operator
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .bitset import bit_matrix, elements_of


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

    The family is stored as one matrix, :meth:`elements`: each member's
    elements in ascending order, one row per member in ascending-mask order.
    It alone decides ``==``, ``hash`` and ``mask in family`` (a bisection
    over the rows).  Duplicate masks passed to the constructor are merged;
    the JSON loader, by contrast, rejects duplicate rows outright.
    Everything else is read from the matrix on first use and cached: the
    masks (:attr:`sets`), built only by iteration, ``brute_force_sunflower``
    and ``verify_sunflower_free``, and :meth:`holders`, a packed member bitset
    for each element of the support (the elements some member holds), read by
    the hit-probability kernels.  The spread layer caches its per-level superset
    counts in ``_levels`` (:func:`sunflowers.spread.level_counts`).
    """

    __slots__ = ("ground_size", "k", "_sets", "_holders", "_elements", "_levels")

    def __init__(self, ground_size: int, k: int, sets: Iterable[int]):
        ground_size, k = operator.index(ground_size), operator.index(k)
        _check_sizes(ground_size, k)
        masks = sorted(set(map(operator.index, sets)))
        for m in masks:
            if m < 0 or m.bit_length() > ground_size:
                raise ValueError(f"mask {m:#x} does not fit ground set of size {ground_size}")
            if m.bit_count() != k:
                raise ValueError(f"mask {m:#x} has {m.bit_count()} elements, expected k={k}")
        rows = np.array(list(map(elements_of, masks)), dtype=np.min_scalar_type(ground_size - 1))
        self._hold(ground_size, k, rows.reshape(len(masks), k))
        self._sets = tuple(masks)

    @classmethod
    def _from_elements(cls, ground_size: int, k: int, elements: np.ndarray) -> "SetFamily":
        """A family held as a validated ``(|F|, k)`` matrix: distinct rows of ascending
        elements in colex (ascending-mask) order, in the dtype of :meth:`elements`."""
        _check_sizes(ground_size, k)
        family = cls.__new__(cls)
        family._hold(ground_size, k, elements)
        return family

    def _hold(self, ground_size: int, k: int, elements: np.ndarray) -> None:
        self.ground_size = ground_size
        self.k = k
        elements.setflags(write=False)
        self._elements = elements
        self._sets = None
        self._holders = None
        self._levels = {}

    @property
    def sets(self) -> tuple[int, ...]:
        """The members as ascending masks, read from :meth:`elements` packed into
        words (no larger than the masks).  Built on first use, then cached."""
        if self._sets is None:
            width = int(self._elements.max(initial=0)) + 1
            words = bit_matrix(np.arange(len(self))[:, None], self._elements, (len(self), width))
            self._sets = tuple(int.from_bytes(row.tobytes(), "little") for row in words.astype("<u8", copy=False))
        return self._sets

    def holders(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only pair ``(support, bits)``: the elements that some member
        holds, ascending, and the ``(len(support), ceil(|F|/64))`` uint64 matrix
        whose row i is the bitset of the members containing ``support[i]`` (bit j
        is ``sets[j]``, padding bits zero).  Scattered from :meth:`elements` on
        first call, then cached.
        """
        if self._holders is None:
            support = np.unique(self._elements)
            position = np.searchsorted(support, self._elements)  # each element's index in the support
            self._holders = support, bit_matrix(position, np.arange(len(self))[:, None], (len(support), len(self)))
            for array in self._holders:
                array.setflags(write=False)
        return self._holders

    def elements(self) -> np.ndarray:
        """Read-only ``(|F|, k)`` matrix whose row s holds the elements of
        ``sets[s]`` in ascending order, in the narrowest unsigned dtype that
        holds n - 1: the family's stored form.
        """
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self):
        return iter(self.sets)

    def __contains__(self, mask: int) -> bool:
        mask = operator.index(mask)
        if mask < 0 or mask.bit_length() > self.ground_size or mask.bit_count() != self.k:
            return False
        key = list(elements_of(mask))[::-1]
        rows = self._elements[:, ::-1]  # colex rows ascend as their elements read backwards
        i = bisect.bisect_left(rows, key, key=np.ndarray.tolist)
        return i < len(self) and rows[i].tolist() == key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.ground_size == other.ground_size
            and self.k == other.k
            and np.array_equal(self._elements, other._elements)
        )

    def __hash__(self) -> int:
        return hash((self.ground_size, self.k, self._elements.tobytes()))

    def __repr__(self) -> str:
        return f"SetFamily(ground_size={self.ground_size}, k={self.k}, size={len(self)})"


def _check_sizes(ground_size: int, k: int) -> None:
    if not 1 <= ground_size <= 2**63:  # every element fits int64, as the loader reads it
        raise ValueError(f"ground-set size must be in [1, 2**63], got {ground_size}")
    if k < 0:
        raise ValueError(f"set size k must be >= 0, got {k}")
    if k >= 2**60:  # a row of k int64 elements, as the loader reads it, spans 2^63 bytes or more
        raise ValueError(f"set size k={k} exceeds numpy's index range")


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

    The rows of :meth:`SetFamily.elements` that hold all of T, with T's
    columns deleted: distinct supersets of T yield distinct differences, in
    the same colex order, so no members merge and nothing is sorted.
    """
    t = operator.index(t)
    if t <= 0:
        raise ValueError(f"link requires a non-empty set T as a non-negative mask, got {t}")
    size_t = t.bit_count()
    if size_t > family.k:
        raise ValueError(f"|T|={size_t} exceeds family k={family.k}")
    elements = family.elements()
    inside = np.zeros(elements.shape, dtype=bool)
    for e in elements_of(t):
        inside |= elements == e
    kept = inside.sum(axis=1) == size_t
    rows = elements[kept]
    rows = rows[~inside[kept]].reshape(len(rows), family.k - size_t)
    return SetFamily._from_elements(family.ground_size, family.k - size_t, rows)


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
    if operator.index(p) < 1:
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


# --- JSON family format: {"ground_set_size": n, "k": k, "sets": [[e1, ..., ek], ...]}, each row ascending --


def family_to_dict(family: SetFamily) -> dict:
    return {
        "ground_set_size": family.ground_size,
        "k": family.k,
        "sets": family.elements().tolist(),
    }


def _element_matrix(ground_size: int, rows: np.ndarray) -> Optional[np.ndarray]:
    """The family's element matrix from its int64 ``(|F|, k)`` rows in any order, or None
    if n is outside [1, 2^63], an element outside [0, n), or a row repeats an element or row."""
    if not (1 <= ground_size <= 2**63 and ((rows >= 0) & (rows < ground_size)).all()):
        return None
    elements = np.sort(rows.astype(np.min_scalar_type(ground_size - 1)), axis=1)
    if len(elements) > 1 and elements.shape[1]:  # colex: ascending masks; one row or none needs no sort
        elements = elements[np.lexsort(elements.T)]
    repeats = (elements[:, 1:] == elements[:, :-1]).any() or (elements[1:] == elements[:-1]).all(axis=1).any()
    return None if repeats else elements


def family_from_dict(data: dict) -> SetFamily:
    """Strict loader: rejects non-integer values, out-of-range elements,
    wrong-cardinality rows (a repeated element counts as one) and duplicate
    rows.

    After the exact-type pass :func:`_element_matrix` decides validity in one
    numpy pass; only then are the rows of an invalid file scanned, to refuse
    it with its first offending row in file order (a row with both faults
    leaves the ground set before it has the wrong cardinality), then an n
    outside [1, 2^63], as :class:`SetFamily` refuses it, then duplicate rows.
    """
    try:
        ground_size = data["ground_set_size"]
        k = data["k"]
        rows = list(data["sets"])
        types = {type(ground_size), type(k)} | set(map(type, chain.from_iterable(rows)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed family data: {exc}") from exc
    if types - {int}:  # bool is a subclass of int, so test the exact type
        raise ValueError(f"family data must be integers, got {sorted(t.__name__ for t in types - {int})}")
    try:  # one numpy pass decides validity; only an invalid file is scanned row by row
        elements = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * max(k, 0)).reshape(len(rows), max(k, 0))
    except (OverflowError, ValueError):  # an element past int64, or fewer than |F|·k elements
        elements = None
    elements = _element_matrix(ground_size, elements) if elements is not None and set(map(len, rows)) <= {k} else None
    if elements is None:
        for row in rows:
            if row and not 0 <= min(row) <= max(row) < ground_size:
                raise ValueError(f"row {row} leaves the ground set of size {ground_size}")
            if len(row) != k or len(set(row)) != k:
                raise ValueError(f"row {row} does not have cardinality k={k}")
        _check_sizes(ground_size, k)  # then only duplicates are left
        raise ValueError("duplicate sets in family data")
    return SetFamily._from_elements(ground_size, k, elements)


def family_json(family: SetFamily) -> str:
    """The family file text: :func:`family_to_dict` as sorted, indented JSON."""
    return json.dumps(family_to_dict(family), sort_keys=True, indent=2) + "\n"


def save_family(family: SetFamily, path) -> None:
    Path(path).write_text(family_json(family))


# a canonical family text, "~" standing for JSON's whitespace (\s would add \f and \v, which json refuses)
_CANONICAL = re.compile(
    rb'~{~"ground_set_size"~:~([1-9]\d{,18})~,~"k"~:~([1-9]\d{,18})~,~"sets"~:~\[(.*)]~}~'.replace(b"~", rb"[ \t\n\r]*"), re.S)


def _canonical_family(text: bytes) -> Optional[SetFamily]:
    """The family in a canonical text, else None: :func:`save_family`'s keys in order, n and k >= 1, and one
    or more rows of k numbers of 1 to len(str(n - 1)) digits, with no leading zeros, in JSON whitespace."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return None
    n, k, compact = int(match[1]), int(match[2]), match[3].translate(None, b" \t\n\r") + b","  # rows, each with a comma
    structure = compact.translate(None, b"0123456789")
    rows = len(structure) // (k + 2)
    # positions below are int32; deleting whitespace joins "1 2", so the text must hold only n's, k's and
    # rows·k digit runs
    if rows < 1 or len(compact) > 2**31 or structure != (b"[" + b"," * (k - 1) + b"],") * rows or (
            np.count_nonzero(np.diff(np.frombuffer(text, np.uint8) - 48 < 10)) != 2 * (rows * k + 2)):
        return None
    digits = np.frombuffer(compact, np.uint8) - 48  # a non-digit wraps past 9
    marks = np.flatnonzero(digits > 9).astype(np.int32).reshape(rows, k + 2)  # each row's [ , .. , ] and comma
    opens, ends = marks[:, :-2], marks[:, 1:-1] - 1  # the byte before each number, and its last digit
    lengths = ends - opens
    if not 1 <= lengths.min() <= lengths.max() <= len(str(n - 1)) or ((digits.take(opens + 1) == 0) & (lengths > 1)).any():
        return None
    # one digit column at a time, units first (a column past a number's length adds 0): below 10^19 < 2^64
    values = sum(digits.take(ends - c, mode="clip") * (lengths > c) * np.uint64(10**c) for c in range(lengths.max()))
    elements = _element_matrix(n, values.view(np.int64))  # a value of 2^63 or more reads negative: refused
    return None if elements is None else SetFamily._from_elements(n, k, elements)


def load_family(path) -> SetFamily:
    """Load a family file as :func:`family_from_dict` loads its JSON.  A canonical ASCII text
    (:func:`save_family`'s, or a compact ``json.dumps``) takes one numpy pass over its bytes; every
    other text, so every refused one, goes through ``json.loads`` and :func:`family_from_dict`."""
    text = Path(path).read_text()
    if text.isascii() and (family := _canonical_family(text.encode())) is not None:
        return family
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    return family_from_dict(data)
