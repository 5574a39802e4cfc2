"""Random-subset experiments over set families.

The central quantity is the hit probability Pr(some member is contained in a
random subset).  Exact values come from full subset enumeration (ground size
<= 24) or from the inclusion-exclusion polynomial (family size <= 20); Monte
Carlo estimates draw from the keyed Philox streams in :mod:`.rng`, so every
estimate is a pure function of (seed, trials) no matter how trials are
chunked or threaded.

Monte Carlo trials share one containment kernel (:func:`_contains_member`).
It is bit-sliced over members: ground element e's row of
``SetFamily.holders()`` is the bitset of the members containing e.  The
ground set splits into groups of up to 8 consecutive elements, each with a
lookup table indexed by the sample's bits in that group, so a trial's
surviving members are the AND of one table row per group.  The group width
depends only on (n, |F|, trials) and never changes a result.

Uncertainty is reported as a 3-sigma normal half-width, which is optimistic
when p_hat is very close to 0 or 1; an exact Clopper-Pearson interval is
available behind the ``interval`` flag of :func:`mc_hit_probability`.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.special import betaincinv

from .bitset import membership_matrix, pack_words
from .constructions import BlockPartition
from .families import SetFamily
from .rng import DEFAULT_SEED, STREAM_BERNOULLI, STREAM_PARTITION, uniform_block

EXACT_ENUMERATION_GROUND_CAP = 24
EXACT_IE_FAMILY_CAP = 20

_CHUNK_TRIALS = 1 << 13
# bytes of the containment kernel's (trials, words) working matrix per tile,
# and of its lookup tables when they are more than one element wide
_KERNEL_TILE_BYTES = 1 << 20
_THREE_SIGMA_COVERAGE = 0.9973002039367398


@dataclass(frozen=True)
class HitEstimate:
    """Exact or sampled value of the hit probability.

    Exact methods carry trials == 0 and zero half-width; Monte Carlo carries
    the 3-sigma normal half-width and, when requested, a Clopper-Pearson
    interval.
    """

    p_hat: float
    trials: int
    half_width_3sigma: float
    method: str  # "enumeration" | "inclusion-exclusion" | "monte-carlo"
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None


@dataclass(frozen=True)
class PartitionStats:
    """Outcome of repeated uniform t-way partitions of the ground set."""

    classes: int
    trials: int
    mean_hit_classes: float
    frac_trials_with_at_least: dict[int, float]
    hit_class_histogram: tuple[int, ...]  # index h = trials with exactly h hit classes


# --- exact hit probability ----------------------------------------------------


def hit_indicator_table(family: SetFamily) -> np.ndarray:
    """Boolean table over all 2^n ground subsets: does Y contain a member?

    Superset closure of the member indicator, one bit per pass.
    """
    n = family.ground_size
    if n > EXACT_ENUMERATION_GROUND_CAP:
        raise ValueError(f"ground size {n} exceeds enumeration cap {EXACT_ENUMERATION_GROUND_CAP}")
    hit = np.zeros(1 << n, dtype=bool)
    for m in family.sets:
        hit[m] = True
    for i in range(n):
        view = hit.reshape(-1, 2, 1 << i)
        view[:, 1, :] |= view[:, 0, :]
    return hit


def hit_counts_by_size(family: SetFamily) -> np.ndarray:
    """Number of hitting subsets of each cardinality 0..n (exact integers)."""
    n = family.ground_size
    hit = hit_indicator_table(family)
    counts = np.zeros(n + 1, dtype=np.int64)
    chunk = 1 << 20
    for start in range(0, 1 << n, chunk):
        stop = min(start + chunk, 1 << n)
        sizes = np.bitwise_count(np.arange(start, stop, dtype=np.uint32))
        counts += np.bincount(sizes[hit[start:stop]], minlength=n + 1)
    return counts


def _exact_by_enumeration(family: SetFamily, delta: float) -> float:
    n = family.ground_size
    counts = hit_counts_by_size(family)
    return math.fsum(
        int(counts[j]) * delta**j * (1.0 - delta) ** (n - j) for j in range(n + 1) if counts[j]
    )


def _union_size_coefficients(family: SetFamily) -> np.ndarray:
    """Signed inclusion-exclusion coefficients c_u of the polynomial sum_u c_u * delta^u.

    c_u = (#odd subfamilies with |union| = u) - (#even subfamilies with
    |union| = u), empty subfamily excluded.  The hit probability is then the
    integer-coefficient polynomial evaluated at delta, which sidesteps the
    cancellation of summing 2^|F| signed terms in floating point.
    """
    m = len(family)
    n = family.ground_size
    if m > EXACT_IE_FAMILY_CAP:
        raise ValueError(f"family size {m} exceeds inclusion-exclusion cap {EXACT_IE_FAMILY_CAP}")
    coeffs = np.zeros(n + 1, dtype=np.int64)
    if m == 0:
        return coeffs
    members = pack_words(membership_matrix(family.sets, n))
    unions = np.zeros((1 << m, members.shape[1]), dtype=np.uint64)
    for i in range(m):
        view = unions.reshape(-1, 2, 1 << i, members.shape[1])
        view[:, 1] = view[:, 0] | members[i]
    sizes = np.bitwise_count(unions[1:]).sum(axis=1, dtype=np.int64)
    parity = np.bitwise_count(np.arange(1, 1 << m, dtype=np.uint32)).astype(np.int64) & 1
    odd = np.bincount(sizes[parity == 1], minlength=n + 1)
    even = np.bincount(sizes[parity == 0], minlength=n + 1)
    coeffs += odd.astype(np.int64) - even.astype(np.int64)
    return coeffs


def _exact_by_inclusion_exclusion(family: SetFamily, delta: float) -> float:
    coeffs = _union_size_coefficients(family)
    return math.fsum(int(c) * delta**u for u, c in enumerate(coeffs) if c)


def exact_hit_probability(family: SetFamily, delta: float, method: str = "auto") -> HitEstimate:
    """Exact Pr(some member is contained in a Bernoulli-delta subset).

    Feasible when the ground set allows full enumeration (n <= 24) or the
    family allows inclusion-exclusion (|F| <= 20); both paths agree to
    within 1e-12 whenever both run.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    n = family.ground_size
    if method == "auto":
        if n <= EXACT_ENUMERATION_GROUND_CAP:
            method = "enumeration"
        elif len(family) <= EXACT_IE_FAMILY_CAP:
            method = "inclusion-exclusion"
        else:
            raise ValueError(
                f"no exact path: ground size {n} > {EXACT_ENUMERATION_GROUND_CAP} "
                f"and family size {len(family)} > {EXACT_IE_FAMILY_CAP}"
            )
    if method == "enumeration":
        value = _exact_by_enumeration(family, delta)
    elif method == "inclusion-exclusion":
        value = _exact_by_inclusion_exclusion(family, delta)
    else:
        raise ValueError(f"unknown exact method {method!r}")
    return HitEstimate(p_hat=value, trials=0, half_width_3sigma=0.0, method=method)


# --- Monte Carlo hit probability ----------------------------------------------


def _group_width(n: int, words: int, trials: int) -> int:
    """Elements per lookup group of the containment kernel.

    The w in 1..8 minimizing ceil(n/w) * (2^w + trials), the rows built plus
    the rows gathered, among the widths whose tables fit in
    ``_KERNEL_TILE_BYTES``; w = 1 always qualifies.
    """
    def fits(w):
        return w == 1 or -(-n // w) * (8 * words << w) <= _KERNEL_TILE_BYTES

    return min((w for w in range(1, 9) if fits(w)), key=lambda w: -(-n // w) * ((1 << w) + trials))


def _contains_member(family: SetFamily, bits: np.ndarray) -> np.ndarray:
    """Row-wise: does the sample with boolean row ``bits[i]`` contain a member?

    Bit-sliced over members with grouped lookup tables.  The ground set splits
    into groups of w consecutive elements (the last may be shorter, w from
    :func:`_group_width`).  Row b of a group's table is the set of members
    that avoid every element of the group absent from b (bit j of b is
    element j of the group), built by doubling over the group's elements.  A
    trial's alive set is the AND of one table row per group, indexed by the
    trial's bits there; the trial hits iff a member survives.  The tables
    start from all of F with padding bits clear, so no padding bit is ever
    alive.  Trials go in tiles of ``_KERNEL_TILE_BYTES``.
    """
    n = family.ground_size
    full = pack_words(np.ones((1, len(family)), dtype=bool))
    words = full.shape[1]
    w = _group_width(n, words, len(bits))
    groups = -(-n // w)
    holders = family.holders()
    tables = np.empty((groups, 1 << w, words), dtype=np.uint64)
    tables[:, :1] = full
    for j in range(w):
        half = 1 << j
        tables[:, half : 2 * half] = tables[:, :half]
        absent = ~holders[j::w, None]  # element j of every group; a short last group may lack it
        tables[: len(absent), :half] &= absent
    # group g's code: w bits from bit g*w % 8 on of the sample's bytes g*w // 8 and g*w // 8 + 1
    first = np.arange(groups) * w
    low, shift = first // 8, (first % 8).astype(np.uint16)[:, None]
    code_mask = np.uint16((1 << w) - 1)
    nbytes = -(-n // 8)
    tile = max(1, _KERNEL_TILE_BYTES // (8 * max(1, words)))
    rows = min(tile, len(bits))
    padded = np.zeros((rows, 8 * nbytes), dtype=bool)
    lanes = np.zeros((nbytes + 1, rows), dtype=np.uint16)  # lane i: byte i of each sample
    alive = np.empty((rows, words), dtype=np.uint64)
    row = np.empty_like(alive)
    hits = np.empty(len(bits), dtype=bool)
    for start in range(0, len(bits), tile):
        count = min(tile, len(bits) - start)
        sample = bits[start : start + count]
        if n % 8:
            padded[:count, :n] = sample
            sample = padded[:count]
        lanes[:nbytes, :count] = np.packbits(sample.reshape(-1), bitorder="little").reshape(count, nbytes).T
        pairs = lanes[:-1, :count] | (lanes[1:, :count] << 8)
        codes = (pairs[low] >> shift) & code_mask
        # codes are below 2^w, so "clip" never clips; it spares the checked copy of "raise"
        np.take(tables[0], codes[0], axis=0, out=alive[:count], mode="clip")
        for g in range(1, groups):
            np.take(tables[g], codes[g], axis=0, out=row[:count], mode="clip")
            alive[:count] &= row[:count]
        hits[start : start + count] = alive[:count].any(axis=1)
    return hits


def _mc_hits_chunk(family: SetFamily, delta: float, seed: int, start: int, count: int) -> int:
    bits = uniform_block(seed, STREAM_BERNOULLI, start, count, family.ground_size) < delta
    return int(_contains_member(family, bits).sum())


def mc_hit_probability(
    family: SetFamily,
    delta: float,
    trials: int,
    seed: int = DEFAULT_SEED,
    threads: int = 1,
    interval: str = "normal",
) -> HitEstimate:
    """Monte Carlo hit probability; bit-reproducible for fixed (seed, trials).

    Trials are independent chunks of the keyed stream reduced by summation,
    so any ``threads`` value yields the identical estimate.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    if interval not in ("normal", "clopper-pearson"):
        raise ValueError(f"unknown interval kind {interval!r}")
    chunks = [(start, min(_CHUNK_TRIALS, trials - start)) for start in range(0, trials, _CHUNK_TRIALS)]
    family.holders()  # build the cached matrix before threads share the family
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(lambda c: _mc_hits_chunk(family, delta, seed, *c), chunks))
    else:
        hits = sum(_mc_hits_chunk(family, delta, seed, start, count) for start, count in chunks)
    return _mc_estimate(hits, trials, interval)


def _mc_estimate(hits: int, trials: int, interval: str = "normal") -> HitEstimate:
    """The Monte Carlo estimate from ``hits`` of ``trials``: the 3-sigma normal
    half-width, plus the Clopper-Pearson interval when asked for."""
    p_hat = hits / trials
    ci_low = ci_high = None
    if interval == "clopper-pearson":
        ci_low, ci_high = clopper_pearson(hits, trials)
    return HitEstimate(
        p_hat=p_hat,
        trials=trials,
        half_width_3sigma=3.0 * math.sqrt(p_hat * (1.0 - p_hat) / trials),
        method="monte-carlo",
        ci_low=ci_low,
        ci_high=ci_high,
    )


def clopper_pearson(successes: int, trials: int, coverage: float = _THREE_SIGMA_COVERAGE) -> tuple[float, float]:
    """Exact binomial confidence interval at the given two-sided coverage."""
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    alpha = 1.0 - coverage
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, alpha / 2))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1 - alpha / 2))
    return lo, hi


# --- partition experiments ------------------------------------------------------


def partition_experiment(
    family: SetFamily, classes: int, trials: int, seed: int = DEFAULT_SEED
) -> PartitionStats:
    """Assign each element uniformly to one of ``classes`` classes, repeatedly.

    Per trial, counts how many classes contain a member of the family; the
    returned statistics carry the full histogram of that count.
    """
    if classes < 2:
        raise ValueError(f"classes must be >= 2, got {classes}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = family.ground_size
    t = classes
    histogram = np.zeros(t + 1, dtype=np.int64)
    for start in range(0, trials, _CHUNK_TRIALS):
        count = min(_CHUNK_TRIALS, trials - start)
        assign = (uniform_block(seed, STREAM_PARTITION, start, count, n) * t).astype(np.int32)
        hit_classes = np.zeros(count, dtype=np.int64)
        for c in range(t):
            hit_classes += _contains_member(family, assign == c)
        histogram += np.bincount(hit_classes, minlength=t + 1)
    mean = float(np.dot(np.arange(t + 1), histogram)) / trials
    frac_at_least = {
        j: float(histogram[j:].sum()) / trials for j in range(1, t + 1)
    }
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
    if trials < 2:
        raise ValueError("need trials >= 2 to estimate the standard error")
    stats = partition_experiment(family, classes, trials, seed=seed)
    exact = exact_hit_probability(family, 1.0 / classes).p_hat
    expected = classes * exact
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


def check_fixed_size_decomposition(
    family: SetFamily, delta: float, m: Optional[int] = None
) -> SizeDecompositionReport:
    """Conditioning a Bernoulli-delta subset on its size i gives the uniform
    i-subset distribution, and the fixed-size hit probability is monotone in
    i; together these yield, for any cut size m,

        Pr(hit at delta) >= Pr(hit | uniform m-subset) * Pr(|sample| >= m).

    The default cut is m = ceil((delta/2)*n).  Every quantity is computed as
    an exact rational (any float delta is a dyadic rational; counts come from
    full enumeration; the binomial tail is a finite sum), so the comparison
    itself is exact.  The enumeration's 2^n table caps n at
    ``EXACT_ENUMERATION_GROUND_CAP``.
    """
    n = family.ground_size
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    d = Fraction(delta)
    if m is None:
        m = math.ceil(d / 2 * n)
    elif not 0 <= m <= n:
        raise ValueError(f"m must be in [0, {n}], got {m}")
    counts = hit_counts_by_size(family)
    lhs = sum(int(counts[j]) * d**j * (1 - d) ** (n - j) for j in range(n + 1))
    by_size = [Fraction(int(counts[j]), math.comb(n, j)) for j in range(n + 1)]
    monotone = all(by_size[j] <= by_size[j + 1] for j in range(n))
    tail = sum(math.comb(n, j) * d**j * (1 - d) ** (n - j) for j in range(m, n + 1))
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
    rate_condition_applies: Optional[bool] = None
    rate_bound_ok: Optional[bool] = None


def check_chernoff_tail(
    n: int, delta: float, r: Optional[float] = None, eps: Optional[float] = None
) -> ChernoffTailReport:
    """Exact Pr(Bin(n, delta) <= n*delta/2) <= e^(-n*delta/8).

    The tail is an exact rational sum up to floor(n*delta/2) inclusive.  When
    r and eps are supplied (one without the other is an error, and r must be
    finite), additionally checks e^(-r*delta/8) <= eps^2 whenever
    r >= 16/delta * ln(1/eps).
    """
    if (r is None) != (eps is None):
        raise ValueError("r and eps must be given together")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 1/2], got {delta}")
    d = Fraction(delta)
    threshold = math.floor(d * n / 2)
    tail = sum(math.comb(n, j) * d**j * (1 - d) ** (n - j) for j in range(threshold + 1))
    bound = math.exp(-n * delta / 8.0)
    passed = float(tail) <= bound
    applies = ok = None
    if r is not None:
        if not math.isfinite(r):
            raise ValueError(f"r must be finite, got {r}")
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0,1), got {eps}")
        applies = r >= 16.0 / delta * math.log(1.0 / eps)
        ok = (math.exp(-r * delta / 8.0) <= eps**2) if applies else True
        passed = passed and ok
    return ChernoffTailReport(
        n=n,
        delta=delta,
        threshold=threshold,
        tail_probability=float(tail),
        bound=bound,
        passed=passed,
        rate_condition_applies=applies,
        rate_bound_ok=ok,
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
    partition = BlockPartition(k, r)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0,1), got {delta}")
    n = partition.ground_size
    hits = 0
    for start in range(0, trials, _CHUNK_TRIALS):
        count = min(_CHUNK_TRIALS, trials - start)
        bits = uniform_block(seed, STREAM_BERNOULLI, start, count, n) < delta
        hits += int(bits.reshape(count, k, r).any(axis=2).all(axis=1).sum())
    return _mc_estimate(hits, trials)


@dataclass(frozen=True)
class ThresholdPoint:
    """Smallest block width whose measured hit probability reaches the target."""

    k: int
    r_star: Optional[int]
    p_hat: float
    tightness_floor: float


def hit_threshold_sweep(
    ks,
    delta: float,
    target: float = 0.5,
    trials: int = 50_000,
    r_max: int = 64,
    seed: int = DEFAULT_SEED,
) -> list[ThresholdPoint]:
    """For each k, scan r = 1..r_max for the first measured hit >= target.

    The true hit probability (1-(1-delta)^r)^k is increasing in r, so a
    linear scan with early exit finds the crossing.  The reported floor is
    0.25/delta * ln(2k), the largest width that provably keeps the hit
    probability below 1/2.
    """
    points = []
    for k in ks:
        floor = 0.25 / delta * math.log(2 * k)
        r_star = None
        p_at_star = 0.0
        for r in range(1, r_max + 1):
            est = mc_block_hit_probability(k, r, delta, trials, seed=seed)
            p_at_star = est.p_hat
            if est.p_hat >= target:
                r_star = r
                break
        points.append(ThresholdPoint(k=k, r_star=r_star, p_hat=p_at_star, tightness_floor=floor))
    return points
