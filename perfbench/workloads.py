"""The four benchmark workloads: inputs, the calls into the library, and checks.

A workload is a fixed list of op kinds, the *pass*.  A run repeats the pass
with fresh inputs: every op's seed comes from (run seed, pass, position), so
no two ops of a run share an input and a cache across calls cannot pass for
a faster layer.  Each op calls the library through a module attribute looked
up at call time, so the tracer's wrappers see the call.

Every check compares the output with something independent of the code path
being timed: a closed form, a different library path, or an exhaustive
search written here.  Checks run outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np
from sunflowers import cli, constructions, extraction, families, probability, sunvalues


@dataclass
class Op:
    """One timed call.  ``check`` returns a failure message or None, and may
    record output-derived properties in ``props``."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    props: dict = field(default_factory=dict)


def op_seed(seed: int, pass_index: int, position: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{pass_index}:{position}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def block_hit(k: int, r: int, delta: float) -> float:
    """Closed form: a Bernoulli-delta sample contains a transversal iff it meets every block."""
    return (1.0 - (1.0 - delta) ** r) ** k


def block_rows(k: int, r: int, perm: list[int]) -> list[list[int]]:
    """All r^k transversals of the k-by-r block partition, relabeled by ``perm``."""
    return [sorted(perm[i * r + c] for i, c in enumerate(choice))
            for choice in itertools.product(range(r), repeat=k)]


def is_sunflower_of(sets: list[int], core: int) -> bool:
    return all(a & b == core for a, b in itertools.combinations(sets, 2))


def has_sunflower(sets, p: int) -> bool:
    """Exhaustive oracle: some p members whose pairwise intersections coincide."""
    for combo in itertools.combinations(sets, p):
        if p == 1 or is_sunflower_of(list(combo), combo[0] & combo[1]):
            return True
    return False


# Monte Carlo checks accept an estimate within this many standard errors of the
# exact value: wide enough that a documented change of the sampling stream does
# not turn ops into failures by chance (about 2e-9 per op for a normal estimate)
SIGMAS = 6.0


def within_sigmas(value: float, expected: float, sigma: float, what: str):
    if abs(value - expected) > SIGMAS * sigma:
        return f"{what} {value!r} is more than {SIGMAS} sigma ({sigma:.3g}) from {expected!r}"
    return None


class Workload:
    """Base: subclasses define the pass and how to build one op."""

    name = ""
    kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: str, workdir: Path):
        if scale not in ("full", "tiny"):
            raise ValueError(f"unknown scale {scale!r}")
        self.seed = seed
        self.tiny = scale == "tiny"
        self.workdir = workdir

    def make_pass(self, pass_index: int) -> list[Op]:
        """Ops of one pass, inputs generated and staged (untimed)."""
        return [self.make_op(kind, op_seed(self.seed, pass_index, i))
                for i, kind in enumerate(self.kinds)]

    def warmup_op(self) -> Op:
        return self.make_op(self.kinds[0], op_seed(self.seed, -1, 0))

    def make_op(self, kind: str, seed: int) -> Op:
        raise NotImplementedError

    def shares(self, props: list[dict]) -> dict[str, float]:
        """Share of ops with each input or output property, from the ops' ``props``."""
        return {}


def _share(props: list[dict], flag: str) -> float:
    return sum(1 for p in props if p.get(flag)) / len(props) if props else 0.0


# --- mc-hit --------------------------------------------------------------------


class McHit(Workload):
    """Monte Carlo hit probability and partition histograms on block families.

    Narrow ops (block(3,8) at delta = 1/8, p_hit about 0.28; block(2,8) split
    4 ways) are the common case, where the containment kernel takes about 89%
    of the time.  Large ops (block(5,6), 7,776 members) run 16,384 trials, two
    full chunks of the sampler, each with its |F| x chunk temporary, so peak_mb
    follows the chunk size; the wide op (block(4,16), n = 64) takes the
    Python-int path, and its time depends on how many trials miss.  Two large
    ops and one wide op per pass of 15: the large ops are the slowest, so
    norm_op_ms_p90 falls among them, and their cost does not depend on the seed.
    """

    name = "mc-hit"
    kinds = ("narrow", "partition", "narrow", "partition", "large", "narrow", "partition", "wide",
             "narrow", "partition", "large", "narrow", "partition", "narrow", "partition")
    # kind -> (k, r, delta, trials); the partition op splits into 4 classes
    FULL = {"narrow": (3, 8, 0.125, 20_000), "partition": (2, 8, 0.25, 20_000),
            "large": (5, 6, 0.25, 16_384), "wide": (4, 16, 0.125, 32)}
    TINY = {"narrow": (3, 8, 0.125, 2_000), "partition": (2, 8, 0.25, 2_000),
            "large": (5, 6, 0.25, 256), "wide": (4, 16, 0.125, 4)}
    CLASSES = 4

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.params = self.TINY if self.tiny else self.FULL
        # canonical layout, so the structural block sampler reproduces p_hat bit for bit
        self.family = {kind: constructions.block_product_family(k, r)[0]
                       for kind, (k, r, _, _) in self.params.items()}

    def warmup_op(self) -> Op:
        return self.make_op("large", op_seed(self.seed, -1, 0))

    def make_op(self, kind, seed):
        k, r, delta, trials = self.params[kind]
        family = self.family[kind]
        props = {"wide": family.ground_size > 63, "large": len(family) > 4096}
        if kind == "partition":
            t = self.CLASSES
            return Op(kind, lambda: probability.partition_experiment(family, t, trials, seed=seed),
                      lambda out: self._check_partition(out, k, r, t, trials), props)
        return Op(kind, lambda: probability.mc_hit_probability(family, delta, trials, seed=seed),
                  lambda out: self._check_mc(out, k, r, delta, trials, seed), props)

    @staticmethod
    def _check_mc(out, k, r, delta, trials, seed):
        if out.trials != trials:
            return f"estimate reports {out.trials} trials, ran {trials}"
        structural = probability.mc_block_hit_probability(k, r, delta, trials, seed=seed).p_hat
        if out.p_hat != structural:
            return f"p_hat {out.p_hat!r} differs from the structural sampler's {structural!r}"
        exact = block_hit(k, r, delta)
        return within_sigmas(out.p_hat, exact, math.sqrt(exact * (1 - exact) / trials), "p_hat")

    @staticmethod
    def _check_partition(out, k, r, t, trials):
        hist = out.hit_class_histogram
        if len(hist) != t + 1 or sum(hist) != trials:
            return f"histogram {hist} does not cover {trials} trials over 0..{t} classes"
        mean = sum(h * c for h, c in enumerate(hist)) / trials
        if not math.isclose(mean, out.mean_hit_classes, rel_tol=1e-12, abs_tol=1e-12):
            return f"mean {out.mean_hit_classes!r} disagrees with its histogram ({mean!r})"
        var = sum(c * (h - mean) ** 2 for h, c in enumerate(hist)) / (trials - 1)
        # each class is a Bernoulli-(1/t) subset, so E[#hit classes] = t * hit(1/t)
        return within_sigmas(mean, t * block_hit(k, r, 1.0 / t), math.sqrt(var / trials),
                             "mean hit classes")

    def shares(self, props):
        return {"n_gt_63": _share(props, "wide"), "large_family": _share(props, "large")}


# --- extract -------------------------------------------------------------------


class Extract(Workload):
    """extract_sunflower on seeded random families.

    Four in five families have the shape of the acceptance fuzz (n <= 16,
    k <= 4, |F| <= 12, p <= 4): the randomized partition search and the
    exhaustive fallback do the work.  One in five is larger (n 24..40,
    k 3..4, p 2..3) with a planted element (k = 3) or pair (k = 4) in more
    members than the spread threshold r = C p ln k allows, which drives
    spread_witness's early-violation case and the link recursion.  Planted
    families have more than (p-1)^k k! members, so a sunflower provably
    exists.  Their sizes are drawn so that |F| (2^k - 1), the superset-count
    work, is spread evenly over one range for every (p, k); the planted ops
    then form one continuous cost class, the top fifth of the ops, and
    norm_op_ms_p90 falls in its middle.
    """

    name = "extract"
    kinds = (("fuzz",) * 4 + ("planted",)) * 4
    CANDIDATES = (15_000, 40_000)

    def make_op(self, kind, seed):
        rng = random.Random(seed)
        if kind == "fuzz":
            n, k, p, sets = self._fuzz_family(rng)
        else:
            n, k, p, sets = self._planted_family(rng)
        family = families.SetFamily(n, k, sets)
        params = extraction.ExtractionParams(p=p, seed=rng.randrange(2**63))
        op = Op(kind, lambda: extraction.extract_sunflower(family, params), None,
                {"fuzz": kind == "fuzz", "planted": kind == "planted"})
        op.check = lambda out: self._check(out, family, p, kind, op.props)
        return op

    @staticmethod
    def _fuzz_family(rng):
        n = rng.randint(2, 16)
        k = rng.randint(1, min(4, n))
        p = rng.randint(2, 4)
        target = rng.randint(1, 12)
        sets = set()
        for _ in range(200):
            if len(sets) == target:
                break
            sets.add(sum(1 << e for e in rng.sample(range(n), k)))
        return n, k, p, sets

    @classmethod
    def _planted_family(cls, rng):
        p, k = rng.choice((2, 3)), rng.choice((3, 4))
        c = k - 2  # planted core size
        size = rng.randint(*cls.CANDIDATES) // (2**k - 1)
        n = rng.randint(24, 40)
        r = 4.0 * p * math.log(k)  # the recursion's default threshold C p ln k, C = 4
        need = math.floor(r ** (k - c)) + 1  # members through the core that violate r-spread
        while math.comb(n - c, k - c) < need:  # room for them (p = 3, k = 4 needs n >= 27)
            n += 1
        while n < 40 and math.comb(n, k) < 3 * size // 2:
            n += 1
        size = max(min(size, 2 * math.comb(n, k) // 3), (p - 1) ** k * math.factorial(k) + 1)
        degree = min(rng.randint(need, 2 * need), math.comb(n - c, k - c), size)
        if degree < need:
            raise ValueError(f"planted family of {size} members cannot hold {need} through its core")
        ground = list(range(n))
        core_elems = rng.sample(ground, c)
        core = sum(1 << e for e in core_elems)
        rest = [e for e in ground if e not in core_elems]
        gen = np.random.default_rng(rng.randrange(2**63))
        sets = set()
        _add_random_sets(gen, sets, degree, rest, k - c, core)
        _add_random_sets(gen, sets, size, ground, k)
        return n, k, p, sets

    @staticmethod
    def _check(out, family, p, kind, props):
        props["link"] = any(type(s).__name__ == "LinkCase" for s in out.steps)
        props["fallback"] = out.fallback_used
        props["succeeded"] = out.sunflower is not None
        flower = out.sunflower
        if flower is not None:
            petals = list(flower.petals)
            if len(petals) != p or len(set(petals)) != p:
                return f"{len(petals)} petals returned, wanted {p} distinct"
            members = set(family.sets)
            if any(petal not in members for petal in petals):
                return "a petal is not a member of the family"
            if not is_sunflower_of(petals, flower.core):
                return "returned sets are not a sunflower with the reported core"
        if kind == "fuzz":
            exists = has_sunflower(family.sets, p)
            if exists != (flower is not None):
                return f"extraction {'missed' if exists else 'invented'} a {p}-sunflower"
        return None

    def shares(self, props):
        return {name: _share(props, name) for name in ("fuzz", "planted", "link", "fallback", "succeeded")}


def _add_random_sets(gen, sets: set, target: int, elems: list[int], m: int, extra: int = 0) -> None:
    """Add uniformly random m-subsets of ``elems`` (< 64), each joined with
    ``extra``, to ``sets`` as bitmasks until it holds ``target`` members."""
    values = np.array(elems, dtype=np.uint64)
    while len(sets) < target:
        # the m smallest of a row of uniform keys pick a uniform m-subset
        keys = gen.random((target - len(sets) + 16, len(elems)))
        picks = values[np.argpartition(keys, m - 1, axis=1)[:, :m]]
        masks = np.bitwise_or.reduce(np.uint64(1) << picks, axis=1) | np.uint64(extra)
        for mask in masks.tolist():
            if len(sets) == target:
                break
            sets.add(mask)


# --- cli-certify ----------------------------------------------------------------


class CliCertify(Workload):
    """README CLI commands run in-process through ``sunflowers.cli.main``.

    check-spread certifies (--r r, exit 0) and refutes at a singleton
    (--r r-1, exit 1) seeded relabelings of block(7,4) and, twice, block(6,4):
    the full superset count dominates.  estimate-hit runs the two exact
    paths (enumeration on a relabeled block(3,8), inclusion-exclusion on a
    20-member subfamily), and verify decomposition runs on block(5,4).
    Every op reads its own JSON file, written before the pass starts.
    """

    name = "cli-certify"
    # two block(6,4) pairs, so that the median op falls among four ops of one
    # family instead of between families of different cost
    kinds = ("certify-7", "refute-7", "certify-6", "refute-6", "enumeration", "certify-6",
             "refute-6", "inclusion-exclusion", "decomposition")
    # kind -> (k, r) of the block family behind it
    FULL = {"7": (7, 4), "6": (6, 4), "enumeration": (3, 8), "inclusion-exclusion": (3, 8),
            "decomposition": (5, 4)}
    TINY = {"7": (4, 4), "6": (3, 4), "enumeration": (2, 6), "inclusion-exclusion": (2, 6),
            "decomposition": (3, 4)}
    SUBFAMILY = 20

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.params = self.TINY if self.tiny else self.FULL
        self.counter = itertools.count()

    def _write(self, n: int, k: int, rows: list[list[int]]) -> str:
        path = self.workdir / f"family-{next(self.counter)}.json"
        path.write_text(json.dumps({"ground_set_size": n, "k": k, "sets": rows}))
        return str(path)

    def make_op(self, kind, seed):
        rng = random.Random(seed)
        key = kind.split("-")[-1] if kind.startswith(("certify", "refute")) else kind
        k, r = self.params[key]
        perm = list(range(k * r))
        rng.shuffle(perm)
        rows = block_rows(k, r, perm)
        if kind == "inclusion-exclusion":
            rows = rng.sample(rows, min(self.SUBFAMILY, len(rows)))
        path = self._write(k * r, k, rows)
        props = {kind.split("-")[0]: True}
        if kind.startswith(("certify", "refute")):
            claim = r if kind.startswith("certify") else r - 1
            argv = ["check-spread", path, "--r", str(claim)]
            return Op(kind, lambda: _run_cli(argv),
                      lambda out: self._check_spread(out, rows, k, r, claim), props)
        if kind == "decomposition":
            delta = rng.choice((0.5, 0.625, 0.75))
            out_path = path[:-5] + "-report.json"
            argv = ["verify", "decomposition", "--family", path, "--delta", repr(delta),
                    "--out", out_path]
            return Op(kind, lambda: _run_cli(argv),
                      lambda out: self._check_decomposition(out, out_path, k, r, delta), props)
        delta = rng.uniform(0.05, 0.45)
        argv = ["estimate-hit", path, "--delta", repr(delta), "--method", kind]
        return Op(kind, lambda: _run_cli(argv),
                  lambda out: self._check_exact(out, kind, rows, k, r, delta), props)

    @staticmethod
    def _check_spread(out, rows, k, r, claim):
        code, text = out
        expect_certified = claim >= r
        if code != (0 if expect_certified else 1):
            return f"check-spread --r {claim} exited {code}"
        payload = json.loads(text)
        if payload["spreadness"] != float(r):
            return f"spreadness {payload['spreadness']!r} != {r}"
        if payload["certified"] != expect_certified:
            return f"certified={payload['certified']} at --r {claim}"
        violation = payload["violation"]
        if expect_certified:
            return None if violation is None else "certified report carries a violation"
        t = set(violation["t"])
        count = sum(1 for row in rows if t <= set(row))
        if count != violation["count"]:
            return f"violation count {violation['count']} but {count} members contain {sorted(t)}"
        if len(t) != 1 or count <= claim ** (k - 1):
            return f"violation {sorted(t)} (count {count}) is not a singleton violation"
        return None

    @staticmethod
    def _check_exact(out, kind, rows, k, r, delta):
        code, text = out
        if code != 0:
            return f"estimate-hit exited {code}"
        p_hat = json.loads(text)["p_hat"]
        if kind == "enumeration":
            expected = block_hit(k, r, delta)
        else:
            family = families.SetFamily(k * r, k, (sum(1 << e for e in row) for row in rows))
            expected = probability.exact_hit_probability(family, delta, method="enumeration").p_hat
        if abs(p_hat - expected) > 1e-12:
            return f"{kind} p_hat {p_hat!r} differs from {expected!r}"
        return None

    @staticmethod
    def _check_decomposition(out, out_path, k, r, delta):
        code, text = out
        if code != 0 or not text.rstrip().endswith("PASS"):
            return f"verify decomposition exited {code}"
        report = json.loads(Path(out_path).read_text())
        if abs(report["hit_probability"] - block_hit(k, r, delta)) > 1e-12:
            return f"hit probability {report['hit_probability']!r} differs from the closed form"
        if report["lower_bound"] > report["hit_probability"]:
            return "lower bound exceeds the hit probability"
        return None

    def shares(self, props):
        return {"certified": _share(props, "certify"), "refuted": _share(props, "refute")}


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --- sun-search -----------------------------------------------------------------


class SunSearch(Workload):
    """max_sunflower_free(p, k, ground_cap=c) over a fixed grid of points.

    The only workload for the canonical search in ``sunvalues``.  The grid
    does not depend on the seed, so a worker process makes exactly one pass
    and a run repeats the pass in fresh processes: repeating a point in one
    process would let a cache pass for a faster search.  ``ground_cap`` keeps
    every result exhaustive and free of the wall clock.
    """

    name = "sun-search"
    # (p, k, ground_cap) -> max_size recorded at the commit that defined the
    # benchmark.  Two trivial points, seven of 1 to 4 ms, then larger ones up
    # to (4,2,8) and (4,3,6).  The median op falls between (3,2,8) and
    # (3,2,10), which cost within 5% of each other, so norm_op_ms_p50 does not
    # jump between points of different cost; norm_op_ms_p90 falls among the
    # (4,3,6) ops.
    GRID = {
        (2, 2, 4): 1, (3, 1, 3): 2,
        (3, 2, 6): 6, (3, 2, 7): 6, (3, 2, 8): 6, (3, 2, 10): 6,
        (3, 3, 5): 6, (4, 2, 5): 7, (4, 3, 5): 10,
        (4, 2, 6): 9, (3, 3, 6): 10, (4, 2, 7): 10, (4, 2, 8): 10, (4, 3, 6): 14,
    }
    TINY_GRID = ((2, 2, 4), (3, 1, 3), (3, 2, 6), (4, 2, 5))
    WARMUP = (4, 2, 3)

    def make_pass(self, pass_index):
        points = self.TINY_GRID if self.tiny else tuple(self.GRID)
        return [self._op(point) for point in points]

    def warmup_op(self):
        return self._op(self.WARMUP)

    def _op(self, point):
        p, k, cap = point
        expected = self.GRID.get(point)
        return Op(f"{p},{k},{cap}",
                  lambda: sunvalues.max_sunflower_free(p, k, ground_cap=cap),
                  lambda out: self._check(out, p, k, cap, expected))

    @staticmethod
    def _check(out, p, k, cap, expected):
        if not out.exhaustive:
            return "search was not exhaustive"
        members = list(out.witness.sets)
        if len(members) != out.max_size or len(set(members)) != len(members):
            return f"witness has {len(members)} members, max_size {out.max_size}"
        if any(m.bit_count() != k or m.bit_length() > cap for m in members):
            return f"witness is not a {k}-uniform family within {cap} elements"
        if has_sunflower(members, p):
            return f"witness contains a {p}-sunflower"
        if expected is not None and out.max_size != expected:
            return f"max_size {out.max_size} != recorded {expected}"
        return None


WORKLOADS = {w.name: w for w in (McHit, Extract, CliCertify, SunSearch)}
