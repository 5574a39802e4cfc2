"""Random-subset experiments over set families.

The central quantity is the hit probability Pr(some member is contained in a
random subset), which only the support, the m elements some member holds, can
decide.  Exact values count the support's subsets by size in a table of one
bit each (m <= 24, 2 MiB at m = 24), or pair the subfamilies of the family's
two halves for the inclusion-exclusion polynomial (family size <= 20), both
summed exactly by :func:`_exact_sum`, rounded once; Monte
Carlo estimates draw from the keyed Philox streams in :mod:`.rng`, so every
estimate is a pure function of (seed, trials) no matter how trials are tiled.

Monte Carlo samples come packed from :func:`.rng.bernoulli_block`: one
``uint8`` row of ceil(n/8) bytes per trial, bit j of byte i standing for
element 8i + j.  The partition experiment packs each class the same way,
all t classes of a tile of trials into one matrix, from the class ids of
:func:`_class_ids`, which the extraction's spread-case search also reads.
Both are tiled by one byte budget and share one containment kernel, bit-sliced
over members (``SetFamily.holders()``), whose tables :func:`_member_tables`
builds once per call and :func:`_contains_member` applies to each tile of rows.
Each group of up to 8 consecutive elements that meets the support has a lookup
table indexed by the sample's bits there, so a trial's surviving members are
the AND of one table row per such group.  The group width depends only on
(the support, |F|, the call's row count) and never changes a result.

Uncertainty is reported as one 3-sigma normal half-width, which is optimistic
when p_hat is very close to 0 or 1 (it is 0 when no trial or every trial hits).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .bitset import _KERNEL_TILE_BYTES, bit_matrix
from .constructions import BlockPartition
from .families import SetFamily
from .rng import DEFAULT_SEED, STREAM_BERNOULLI, STREAM_PARTITION, bernoulli_block, uniform_block

EXACT_ENUMERATION_GROUND_CAP = 24
EXACT_IE_FAMILY_CAP = 20
# the exact Chernoff tail costs about n^2.6: 1.2 s at n = 2,048
CHERNOFF_TAIL_N_CAP = 2048

# positions b < 64 in a word of the enumeration table: without element e, and of size i
_WITHOUT_ELEMENT = tuple(np.uint64(sum(1 << b for b in range(64) if not b >> e & 1)) for e in range(6))
_IN_WORD_SIZE = tuple(np.uint64(sum(1 << b for b in range(64) if b.bit_count() == i)) for i in range(7))


@dataclass(frozen=True)
class HitEstimate:
    """Exact or sampled value of the hit probability.

    Exact methods carry trials == 0 and zero half-width; Monte Carlo carries
    the 3-sigma normal half-width, optimistic when p_hat is near 0 or 1.
    """

    p_hat: float
    trials: int
    half_width_3sigma: float
    method: str  # "enumeration" | "inclusion-exclusion" | "monte-carlo"


@dataclass(frozen=True)
class PartitionStats:
    """Outcome of repeated uniform t-way partitions of the ground set."""

    classes: int
    trials: int
    mean_hit_classes: float
    frac_trials_with_at_least: dict[int, float]
    hit_class_histogram: tuple[int, ...]  # index h = trials with exactly h hit classes


# --- exact hit probability ----------------------------------------------------


def hit_counts_by_size(family: SetFamily) -> np.ndarray:
    """Number of hitting subsets of each cardinality 0..n (exact integers).

    The hitting subsets are the superset closure of the members, at one bit
    per subset: bit b of word w is subset 64w + b.  Each member's bit closes
    under elements 0..5 (which pick b) by masked shift-ORs before one scatter;
    elements 6.. pick w and close by doubling over words (the first four as
    strided column ORs, the rest over blocks).  A subset's size is
    popcount(w) + popcount(b): row i of a ``uint8`` block counts in-word size
    i per word, and each fold of the top bit of w adds the upper half one row
    down, until row s counts size s (entries <= 20 * 2^f after f folds).
    Both exact callers pass the family relabelled onto its support, by :func:`_on_support`.
    """
    n = family.ground_size
    if n > EXACT_ENUMERATION_GROUND_CAP:
        raise ValueError(f"{n} elements exceed enumeration cap {EXACT_ENUMERATION_GROUND_CAP}")
    words = np.zeros(1 << max(n - 6, 0), dtype=np.uint64)
    masks = np.bitwise_or.reduce(np.uint64(1) << family.elements().astype(np.uint64), axis=1)
    bits = np.uint64(1) << (masks & 63)
    for e in range(min(n, 6)):
        bits |= (bits & _WITHOUT_ELEMENT[e]) << np.uint64(1 << e)
    np.bitwise_or.at(words, masks >> 6, bits)
    for i in range(n - 6):
        half = 1 << i
        if i < 4:  # rows of 2-16 words iterate slowly: OR one strided column at a time
            view = words.reshape(-1, 2 * half)
            for c in range(half):
                view[:, half + c] |= view[:, c]
        else:
            view = words.reshape(-1, 2, half)
            view[:, 1, :] |= view[:, 0, :]
    block = np.empty((len(_IN_WORD_SIZE), len(words)), dtype=np.uint8)  # row i: in-word size i, at most 20
    for i, size_class in enumerate(_IN_WORD_SIZE):
        np.bitwise_count(words & size_class, out=block[i])
    for f in range(1, n - 5):  # fold the top word bit: its upper half has one more element
        folded = np.zeros((len(block) + 1, len(words) >> f), dtype=np.min_scalar_type(20 << f))
        folded[:-1] = block[:, : folded.shape[1]]
        folded[1:] += block[:, folded.shape[1] :]
        block = folded
    return block[: n + 1, 0].astype(np.int64)  # in-word sizes above n < 6 stay empty


def _union_size_coefficients(family: SetFamily) -> np.ndarray:
    """Signed inclusion-exclusion coefficients c_u of the polynomial sum_u c_u * delta^u.

    c_u = (#odd subfamilies with |union| = u) - (#even subfamilies with
    |union| = u), empty subfamily excluded; their terms cancel, so they go
    through the exact sum.  In each half's table of unions rows 0..2^i - 1 are
    the subfamilies of its members 0..i-1, so member i fills rows 2^i..2^(i+1) - 1
    in one slice.  A subfamily pairs two rows, its union size summed over one OR
    per word column, and odd parity rides along as an offset n + 1 that splits one ``bincount``.
    """
    m, n = len(family), family.ground_size
    if m > EXACT_IE_FAMILY_CAP:
        raise ValueError(f"family size {m} exceeds inclusion-exclusion cap {EXACT_IE_FAMILY_CAP}")
    members = bit_matrix(np.arange(m)[:, None], family.elements(), (m, n))
    halves = []
    for part in (members[: m // 2], members[m // 2 :]):
        unions = np.zeros((1 << len(part), members.shape[1]), dtype=np.uint64)
        keys = np.zeros(1 << len(part), dtype=np.min_scalar_type(2 * n + 1))  # n + 1 on odd subfamilies
        for i, member in enumerate(part):
            np.bitwise_or(unions[: 1 << i], member, out=unions[1 << i : 2 << i])
            np.subtract(n + 1, keys[: 1 << i], out=keys[1 << i : 2 << i])
        halves.append((unions, keys))
    (low, low_keys), (high, high_keys) = halves
    keys = np.bitwise_xor.outer(low_keys, high_keys)  # odd iff exactly one half is
    for c in range(members.shape[1]):
        keys += np.bitwise_count(np.bitwise_or.outer(low[:, c], high[:, c]))
    even, odd = np.bincount(keys.reshape(-1), minlength=2 * (n + 1)).reshape(2, n + 1)
    even[0] -= 1  # the empty subfamily
    return odd - even


def _exact_sum(delta: float, terms, top: int) -> Fraction:
    """The exact sum of w * delta^i * (1 - delta)^j over integer terms (w, i, j), i + j <= top.

    A float delta is a/b exactly, so this is sum w * a^i * (b - a)^j * b^(top - i - j) over b^top.
    Powers are taken per term: a table of them would hold top^2 * 54 bits.
    """
    a, b = delta.as_integer_ratio()
    return Fraction(sum(w * a**i * (b - a) ** j * b ** (top - i - j) for w, i, j in terms if w), b**top)


def _on_support(family: SetFamily) -> SetFamily:
    """The family relabelled monotonically onto its m >= 1 support elements 0..m-1."""
    support = family.holders()[0]
    m = max(len(support), 1)
    rows = np.searchsorted(support, family.elements()).astype(np.min_scalar_type(m - 1))
    return SetFamily._from_elements(m, family.k, rows)


def exact_hit_probability(family: SetFamily, delta: float, method: str = "auto") -> HitEstimate:
    """Exact Pr(some member is contained in a Bernoulli-delta subset).

    On the family relabelled monotonically onto its m >= 1 support elements,
    enumeration needs m <= 24 and inclusion-exclusion |F| <= 20; both are
    summed exactly and rounded once, so they agree bit for bit.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    family = _on_support(family)
    m = family.ground_size
    if method == "auto":
        if m <= EXACT_ENUMERATION_GROUND_CAP:
            method = "enumeration"
        elif len(family) <= EXACT_IE_FAMILY_CAP:
            method = "inclusion-exclusion"
        else:
            raise ValueError(
                f"no exact path: support size {m} > {EXACT_ENUMERATION_GROUND_CAP} "
                f"and family size {len(family)} > {EXACT_IE_FAMILY_CAP}"
            )
    if method == "enumeration":
        terms = ((int(c), j, m - j) for j, c in enumerate(hit_counts_by_size(family)))
    elif method == "inclusion-exclusion":
        terms = ((int(c), u, 0) for u, c in enumerate(_union_size_coefficients(family)))
    else:
        raise ValueError(f"unknown exact method {method!r}")
    return HitEstimate(p_hat=float(_exact_sum(delta, terms, m)), trials=0, half_width_3sigma=0.0, method=method)


# --- Monte Carlo hit probability ----------------------------------------------


def _group_width(support: np.ndarray, words: int, total_rows: int) -> int:
    """Elements per lookup group of tables that serve a whole call's ``total_rows``.

    The w in 1..8 minimizing g(w) * (2^w + total_rows), the rows built plus
    gathered, g(w) being the number of w-groups that meet the ascending
    ``support``, among the widths (w = 1 always) whose tables fit the budget.
    """
    keys = support // np.arange(1, 9, dtype=support.dtype)[:, None]  # row w - 1: each element's w-group
    groups = dict(enumerate((1 + np.count_nonzero(np.diff(keys), axis=1)).tolist(), start=1))
    fitting = [w for w in groups if w == 1 or groups[w] * (8 * words << w) <= _KERNEL_TILE_BYTES]
    return min(fitting, key=lambda w: groups[w] * ((1 << w) + total_rows))


def _member_tables(family: SetFamily, total_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's ``uint64 (groups, 2^w, ceil(|F|/64))`` lookup tables, and each group's first element.

    Only the groups of w consecutive elements that meet the support get a table,
    w from :func:`_group_width` on the call's ``total_rows`` (every trial of
    :func:`mc_hit_probability`, t per trial of :func:`partition_experiment`).
    Row b of a group's table is the set of members that avoid every element of
    the group absent from b (bit j of b is element j of the group), doubled
    from all of F with padding bits clear, so no padding bit is ever alive and
    a bit of an element outside the support selects equal rows.
    """
    support, bits = family.holders()
    words = bits.shape[1]
    w = _group_width(support, words, total_rows)
    keys, group = np.unique(support // w, return_inverse=True)
    holding = np.zeros((len(keys), w, words), dtype=np.uint64)  # [g, j]: the members holding element j of group g
    holding[group, support % w] = bits
    tables = np.empty((len(keys), 1 << w, words), dtype=np.uint64)
    tables[:, :1] = np.bitwise_or.reduce(bits, axis=0)  # all of F, padding bits clear: with a group, k >= 1
    for j in range(w):
        half = 1 << j
        tables[:, half : 2 * half] = tables[:, :half]
        tables[:, :half] &= ~holding[:, j, None]
    return tables, (keys * w).astype(np.intp)


def _contains_member(tables: np.ndarray, first: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-wise: does the sample packed in ``rows[i]`` contain a member?

    ``tables`` and the groups' ``first`` elements come from :func:`_member_tables`;
    ``rows`` is ``uint8 (trials, ceil(n/8))``, bit j of byte i being element 8i + j.
    A trial's alive set is the AND of one table row per group, indexed by the
    trial's bits there; the trial hits iff a member survives.  Trials go in
    tiles whose alive and gathered rows share ``_KERNEL_TILE_BYTES``.  A tile's
    hits are the OR of each alive row: folded down the columns into the first
    when a row has at most 8 words (a few long passes), and one segmented
    reduction over the rows otherwise (short passes would cost more there).
    """
    groups, size, words = tables.shape
    if not groups:  # an empty support: no member, or only the empty set
        return np.full(len(rows), bool(words))
    # group g's code: w bits from bit first % 8 on of bytes first // 8 and the next (itself at the row's end)
    low, shift, code_mask = first // 8, (first % 8).astype(np.uint16)[:, None], np.uint16(size - 1)
    high = np.minimum(low + 1, rows.shape[1] - 1)
    tile = max(1, _KERNEL_TILE_BYTES // (16 * words))
    # one allocation for both tile buffers: freed as one block, it lifts glibc's heap-trim
    # threshold past a call's temporaries, so later calls reuse pages instead of faulting
    alive, row = np.empty((2, min(tile, len(rows)), words), dtype=np.uint64)
    row_starts = np.arange(0, alive.size, words)
    hits = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), tile):
        count = min(tile, len(rows) - start)
        lanes = rows[start : start + count].T  # lane i: byte i of each sample
        codes = ((lanes[high].astype(np.uint16) << 8 | lanes[low]) >> shift) & code_mask
        # codes are below 2^w, so "clip" never clips; it spares the checked copy of "raise"
        np.take(tables[0], codes[0], axis=0, out=alive[:count], mode="clip")
        for g in range(1, groups):
            np.take(tables[g], codes[g], axis=0, out=row[:count], mode="clip")
            alive[:count] &= row[:count]
        if words <= 8:
            for c in range(1, words):
                alive[:count, 0] |= alive[:count, c]
            hits[start : start + count] = alive[:count, 0] != 0
        else:
            ors = np.bitwise_or.reduceat(alive[:count].reshape(-1), row_starts[:count])
            hits[start : start + count] = ors != 0
    return hits


def _bernoulli_chunks(seed: int, n: int, delta: float, trials: int) -> Iterator[np.ndarray]:
    """Packed Bernoulli rows of trials 0..trials-1, in tiles of ``_KERNEL_TILE_BYTES`` of rows."""
    tile = max(1, _KERNEL_TILE_BYTES // -(-n // 8))
    for start in range(0, trials, tile):
        yield bernoulli_block(seed, STREAM_BERNOULLI, start, min(tile, trials - start), n, delta)


def mc_hit_probability(family: SetFamily, delta: float, trials: int, seed: int = DEFAULT_SEED) -> HitEstimate:
    """Monte Carlo hit probability; bit-reproducible for fixed (seed, trials).

    The kernel tables are built once for all trials, and the hits of each
    tile of the keyed stream are summed, so tiling never shows.
    """
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    kernel = _member_tables(family, trials)
    chunks = _bernoulli_chunks(seed, family.ground_size, delta, trials)
    hits = sum(int(_contains_member(*kernel, rows).sum()) for rows in chunks)
    return _mc_estimate(hits, trials)


def _mc_estimate(hits: int, trials: int) -> HitEstimate:
    """The Monte Carlo estimate from ``hits`` of ``trials``, with its 3-sigma normal half-width."""
    p_hat = hits / trials
    half_width = 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return HitEstimate(p_hat=p_hat, trials=trials, half_width_3sigma=half_width, method="monte-carlo")


# --- partition experiments ------------------------------------------------------


def _class_ids(
    seed: int, stream: int, trials: int, n: int, classes: int, ids_per_trial: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Uniform ``classes``-way partitions of the ground set, one per trial, in tiles.

    Yields (start, ids): ``ids[i, e]`` is element e's class in trial start + i,
    floor(u * classes) of its uniform u from (seed, stream), in the narrowest
    dtype that holds classes - 1.  A tile holds at least one trial and at most
    ``_KERNEL_TILE_BYTES`` of uniforms, or of the ``ids_per_trial`` values per
    trial, none wider than an id, that the caller derives from them.
    """
    dtype = np.min_scalar_type(classes - 1)
    tile = max(1, _KERNEL_TILE_BYTES // max(dtype.itemsize * ids_per_trial, 8 * n))
    for start in range(0, trials, tile):
        uniforms = uniform_block(seed, stream, start, min(tile, trials - start), n)
        yield start, (uniforms * classes).astype(dtype)


def partition_experiment(
    family: SetFamily, classes: int, trials: int, seed: int = DEFAULT_SEED
) -> PartitionStats:
    """Assign each element uniformly to one of ``classes`` classes, repeatedly.

    Per trial, counts how many classes contain a member of the family; the
    returned statistics carry the full histogram of that count.  The kernel
    tables are built once, for all t * trials rows; a tile of
    :func:`_class_ids` becomes t packed rows per trial and one
    :func:`_contains_member` call, so the histogram does not depend on the tiling.
    """
    t, trials = operator.index(classes), operator.index(trials)
    if t < 2:
        raise ValueError(f"classes must be >= 2, got {t}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = family.ground_size
    nbytes = -(-n // 8)
    kernel = _member_tables(family, t * trials)
    histogram = np.zeros(t + 1, dtype=np.int64)
    for _, ids in _class_ids(seed, STREAM_PARTITION, trials, n, t, t * 8 * nbytes):
        in_class = np.zeros((t, len(ids), 8 * nbytes), dtype=bool)  # padding columns stay clear
        np.equal(ids, np.arange(t, dtype=ids.dtype)[:, None, None], out=in_class[..., :n])
        rows = np.packbits(in_class.reshape(-1), bitorder="little").reshape(-1, nbytes)
        hit_classes = _contains_member(*kernel, rows).reshape(t, len(ids)).sum(axis=0)
        histogram += np.bincount(hit_classes, minlength=t + 1)
    mean = float(np.dot(np.arange(t + 1), histogram)) / trials
    at_least = np.cumsum(histogram[::-1])[::-1]  # at_least[j] = histogram[j:].sum(), exact in int64
    frac_at_least = {j: float(at_least[j]) / trials for j in range(1, t + 1)}
    return PartitionStats(
        classes=t,
        trials=trials,
        mean_hit_classes=mean,
        frac_trials_with_at_least=frac_at_least,
        hit_class_histogram=tuple(int(x) for x in histogram),
    )


@dataclass(frozen=True)
class PartitionMeanReport:
    """Monte Carlo check of E[#hit classes] = t * Pr(hit at delta = 1/t)."""

    classes: int
    trials: int
    mean_hit_classes: float
    expected_mean: float
    sigma_mean: float
    deviation: float
    passed: bool


def check_partition_mean_identity(
    family: SetFamily, classes: int, trials: int, seed: int = DEFAULT_SEED
) -> PartitionMeanReport:
    """Each class of a uniform t-way partition is distributed like a
    Bernoulli subset with delta = 1/t, so by linearity the expected number
    of hit classes is t times the exact hit probability at 1/t.  Asserts the
    sampled mean sits within 3 sigma of that product.
    """
    classes, trials = operator.index(classes), operator.index(trials)
    if trials < 2:
        raise ValueError("need trials >= 2 to estimate the standard error")
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    expected = classes * exact_hit_probability(family, 1.0 / classes).p_hat  # before any trial
    stats = partition_experiment(family, classes, trials, seed=seed)
    hist = np.asarray(stats.hit_class_histogram, dtype=np.float64)
    values = np.arange(classes + 1, dtype=np.float64)
    var = float(np.dot(hist, (values - stats.mean_hit_classes) ** 2)) / (trials - 1)
    sigma_mean = math.sqrt(var / trials)
    deviation = abs(stats.mean_hit_classes - expected)
    return PartitionMeanReport(
        classes=classes,
        trials=trials,
        mean_hit_classes=stats.mean_hit_classes,
        expected_mean=expected,
        sigma_mean=sigma_mean,
        deviation=deviation,
        passed=deviation <= 3.0 * sigma_mean,
    )


# --- exact decomposition and tail checks ----------------------------------------


@dataclass(frozen=True)
class SizeDecompositionReport:
    """Exact check of Pr(hit at delta) >= Pr(hit | size m) * Pr(size >= m)."""

    delta: float
    m: int
    hit_probability: float
    fixed_size_hit_probability: float
    size_tail_probability: float
    lower_bound: float
    monotone_in_size: bool
    passed: bool


def check_fixed_size_decomposition(family: SetFamily, delta: float) -> SizeDecompositionReport:
    """Conditioning a Bernoulli-delta subset on its size i gives the uniform
    i-subset distribution, and the fixed-size hit probability is monotone in
    i; together these yield, at the paper's cut m = ceil((delta/2)*n),

        Pr(hit at delta) >= Pr(hit | uniform m-subset) * Pr(|sample| >= m).

    Every quantity is an exact rational, so the comparison is exact: counts
    by size on the s <= ``EXACT_ENUMERATION_GROUND_CAP`` support elements,
    convolved with C(n - s, ·) for the others, and :func:`_exact_sum` for the
    two sums, whose O(n) terms cap n at ``CHERNOFF_TAIL_N_CAP``.
    """
    n = family.ground_size
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if n > CHERNOFF_TAIL_N_CAP:
        raise ValueError(f"ground-set size {n} exceeds the exact-sum cap {CHERNOFF_TAIL_N_CAP}")
    m = math.ceil(Fraction(delta) / 2 * n)
    on_support = hit_counts_by_size(_on_support(family)).astype(object)  # sizes 0..s, s the support size
    counts = np.convolve(on_support, [math.comb(n + 1 - len(on_support), i) for i in range(n + 2 - len(on_support))])
    lhs = _exact_sum(delta, ((c, j, n - j) for j, c in enumerate(counts)), n)
    by_size = [Fraction(counts[j], math.comb(n, j)) for j in range(n + 1)]
    monotone = all(by_size[j] <= by_size[j + 1] for j in range(n))
    tail = _exact_sum(delta, ((math.comb(n, j), j, n - j) for j in range(m, n + 1)), n)
    rhs = by_size[m] * tail
    return SizeDecompositionReport(
        delta=delta,
        m=m,
        hit_probability=float(lhs),
        fixed_size_hit_probability=float(by_size[m]),
        size_tail_probability=float(tail),
        lower_bound=float(rhs),
        monotone_in_size=monotone,
        passed=bool(lhs >= rhs and monotone),
    )


@dataclass(frozen=True)
class ChernoffTailReport:
    """Exact binomial lower tail against the e^(-n*delta/8) bound."""

    n: int
    delta: float
    threshold: int
    tail_probability: float
    bound: float
    passed: bool


def check_chernoff_tail(n: int, delta: float) -> ChernoffTailReport:
    """Exact Pr(Bin(n, delta) <= n*delta/2) <= e^(-n*delta/8).

    The tail is an exact rational sum up to floor(n*delta/2) inclusive; n must
    be an int of at most ``CHERNOFF_TAIL_N_CAP``.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    if n > CHERNOFF_TAIL_N_CAP:
        raise ValueError(f"n must be <= CHERNOFF_TAIL_N_CAP = {CHERNOFF_TAIL_N_CAP}, got {n}")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    threshold = math.floor(Fraction(delta) * n / 2)
    tail = _exact_sum(delta, ((math.comb(n, j), j, n - j) for j in range(threshold + 1)), n)
    bound = math.exp(-n * delta / 8.0)
    return ChernoffTailReport(
        n=n,
        delta=delta,
        threshold=threshold,
        tail_probability=float(tail),
        bound=bound,
        passed=float(tail) <= bound,
    )


# --- block-family Monte Carlo and threshold sweeps -------------------------------


def mc_block_hit_probability(
    k: int, r: int, delta: float, trials: int, seed: int = DEFAULT_SEED
) -> HitEstimate:
    """Monte Carlo hit probability for the width-r transversal family.

    A sample contains a transversal iff it meets every block, so the check
    never materializes the r^k members; with the same seed it reproduces
    :func:`mc_hit_probability` on the materialized family bit for bit.
    """
    trials = operator.index(trials)
    partition = BlockPartition(k, r)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    n = partition.ground_size
    hits = 0
    for rows in _bernoulli_chunks(seed, n, delta, trials):
        bits = np.unpackbits(rows.reshape(-1), bitorder="little").reshape(len(rows), -1)[:, :n]
        hits += int(bits.reshape(len(rows), k, r).any(axis=2).all(axis=1).sum())
    return _mc_estimate(hits, trials)


@dataclass(frozen=True)
class ThresholdPoint:
    """r_star: the first block width whose exact hit probability reaches 1/2
    (None if no width up to 64 does); p_hat: the probability there, or at width 64."""

    k: int
    r_star: Optional[int]
    p_hat: float
    tightness_floor: float


def hit_threshold_sweep(ks, delta: float) -> list[ThresholdPoint]:
    """For each integer k >= 1, the first r in 1..64 whose hit probability
    (1-(1-delta)^r)^k, increasing in r, reaches 1/2, the paper's per-class
    target, compared exactly as the rational (b^r - (b-a)^r)^k / b^(rk) for
    the double delta = a/b.
    The reported floor is 0.25/delta * ln(2k), the largest width that
    provably keeps the hit probability below 1/2.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    a, b = Fraction(delta).as_integer_ratio()
    points = []
    for k in map(operator.index, ks):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        floor = 0.25 / delta * math.log(2 * k)
        for r_star in range(1, 65):
            hit = Fraction(b**r_star - (b - a) ** r_star, b**r_star) ** k
            if 2 * hit >= 1:
                break
        else:
            r_star = None
        points.append(ThresholdPoint(k=k, r_star=r_star, p_hat=float(hit), tightness_floor=floor))
    return points
