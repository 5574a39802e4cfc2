"""Command-line front end: reproducible experiments over set families.

Every command that consumes randomness takes an explicit --seed (default a
fixed constant, never the clock), and identical invocations produce
identical output bytes.  JSON is the default format; CSV is available for
the tabular outputs.  Exit status is 0 iff the command's verification (when
it has one) passed, and 2 on invalid input, a file that cannot be read or
written, or an input too large to allocate.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .constructions import (
    block_product_family,
    erdos_rado_family,
    exact_block_hit_probability,
    in_tightness_regime,
)
from .extraction import ExtractionParams, extract_sunflower
from .families import family_json, family_to_dict, load_family
from .probability import (
    check_chernoff_tail,
    check_fixed_size_decomposition,
    check_partition_mean_identity,
    exact_hit_probability,
    mc_hit_probability,
    partition_experiment,
)
from .rng import DEFAULT_SEED, check_seed
from .spread import spread_witness, spreadness
from .sunvalues import sun_value

SCHEMA_VERSION = 1
OUT_DIR_ENV = "SUNFLOWERS_OUT_DIR"
DEFAULT_TRIALS = 100_000


def _out_path(arg: str | None) -> Path | None:
    if arg is None:
        return None
    path = Path(arg)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _write(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text if text.endswith("\n") else text + "\n")


def _emit_json(payload: dict, out: Path | None) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    _write(json.dumps(payload, sort_keys=True, indent=2), out)


def _emit_csv(header: list[str], rows: list[list], out: Path | None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["schema_version"] + header)
    for row in rows:
        writer.writerow([SCHEMA_VERSION] + row)
    _write(buf.getvalue(), out)


def _family_id(path: str) -> str:
    return Path(path).stem


# --- subcommands -------------------------------------------------------------


def cmd_construct(args) -> int:
    if args.kind == "block-product":
        family, _ = block_product_family(args.k, args.r)
    else:
        family = erdos_rado_family(args.p, args.k)
    out = _out_path(args.out)
    _write(family_json(family), out)
    if out is not None:
        print(f"wrote {len(family)} sets over ground {family.ground_size} to {out}")
    return 0


def cmd_check_spread(args) -> int:
    family = load_family(args.family)
    report = spread_witness(family, args.r)
    payload = {
        "family": _family_id(args.family),
        "r": args.r,
        "certified": report.certified,
        "spreadness": spreadness(family),
        "violation": None
        if report.violation is None
        else {"t": list(report.violation.elements), "count": report.violation.count},
    }
    _emit_json(payload, _out_path(args.out))
    return 0 if report.certified else 1


def cmd_find_sunflower(args) -> int:
    family = load_family(args.family)
    params = ExtractionParams(p=args.p, C=args.C, seed=args.seed, fallback_bruteforce_cap=args.fallback_cap)
    trace = extract_sunflower(family, params)
    _emit_json(trace.to_dict(), _out_path(args.out))
    return 0 if trace.succeeded else 1


def cmd_estimate_hit(args) -> int:
    check_seed(args.seed)  # exact paths read no seed, but echo it in the CSV
    family = load_family(args.family)
    if args.method == "monte-carlo":
        estimate = mc_hit_probability(family, args.delta, trials=args.trials, seed=args.seed)
    else:
        estimate = exact_hit_probability(family, args.delta, method=args.method)
    out = _out_path(args.out)
    if args.format == "csv":
        _emit_csv(
            ["family_id", "delta", "method", "p_hat", "ci", "trials", "seed"],
            [
                [
                    _family_id(args.family),
                    args.delta,
                    estimate.method,
                    repr(estimate.p_hat),
                    repr(estimate.half_width_3sigma),
                    estimate.trials,
                    args.seed,
                ]
            ],
            out,
        )
    else:
        payload = {"family_id": _family_id(args.family), "delta": args.delta, **asdict(estimate)}
        payload["seed"] = args.seed if estimate.method == "monte-carlo" else None
        _emit_json(payload, out)
    return 0


def cmd_partition(args) -> int:
    family = load_family(args.family)
    stats = partition_experiment(family, args.classes, args.trials, seed=args.seed)
    payload = asdict(stats)
    payload["frac_trials_with_at_least"] = {
        str(k): v for k, v in stats.frac_trials_with_at_least.items()
    }
    payload["family_id"] = _family_id(args.family)
    payload["seed"] = args.seed
    _emit_json(payload, _out_path(args.out))
    return 0


def _verify_partition_mean(args) -> tuple[bool, dict, list[str]]:
    family = load_family(args.family)
    report = check_partition_mean_identity(family, args.classes, args.trials, seed=args.seed)
    lines = [
        f"mean hit classes          = {report.mean_hit_classes}",
        f"t * exact hit prob (1/t)  = {report.expected_mean}",
        f"|difference| = {report.deviation}  vs  3*sigma = {3 * report.sigma_mean}",
    ]
    return report.passed, asdict(report), lines


def _verify_tightness(args) -> tuple[bool, dict, list[str]]:
    k, r, delta, eps = args.k, args.r, args.delta, args.eps
    in_regime = in_tightness_regime(k, r, delta, eps)
    bound = 0.25 * math.log(k / eps) / delta
    lines = [f"regime: r = {r} <= 0.25/delta * ln(k/eps) = {bound}  -> {in_regime}"]
    payload: dict = {"k": k, "r": r, "delta": delta, "eps": eps, "regime_bound": bound, "in_regime": in_regime}
    if not in_regime:
        lines.append("outside the tightness regime; nothing to verify")
        return False, payload, lines
    hit = exact_block_hit_probability(k, r, delta)
    chain = [
        ("(1-(1-d)^r)^k", hit),
        ("e^(-(1-d)^r k)", math.exp(-((1.0 - delta) ** r) * k)),
        ("e^(-e^(-2 d r) k)", math.exp(-math.exp(-2.0 * delta * r) * k)),
        ("e^(-sqrt(eps k))", math.exp(-math.sqrt(eps * k))),
        ("1 - eps", 1.0 - eps),
    ]
    links_ok = [
        chain[0][1] <= chain[1][1],
        chain[1][1] < chain[2][1],
        chain[2][1] <= chain[3][1],
        chain[3][1] < chain[4][1],
    ]
    for (name_a, val_a), (name_b, val_b), ok in zip(chain, chain[1:], links_ok):
        lines.append(f"{name_a} = {val_a}  <=  {name_b} = {val_b}  -> {ok}")
    passed = all(links_ok) and hit < 1.0 - eps
    payload.update(
        {
            "hit_probability": hit,
            "chain": {name: value for name, value in chain},
            "links_ok": links_ok,
            "hit_below_target": hit < 1.0 - eps,
        }
    )
    return passed, payload, lines


def _verify_decomposition(args) -> tuple[bool, dict, list[str]]:
    family = load_family(args.family)
    report = check_fixed_size_decomposition(family, args.delta)
    lines = [
        f"Pr(hit at delta)        = {report.hit_probability}",
        f"Pr(hit | size m={report.m}) * Pr(size >= m) = "
        f"{report.fixed_size_hit_probability} * {report.size_tail_probability} = {report.lower_bound}",
        f"monotone in size: {report.monotone_in_size}",
    ]
    return report.passed, asdict(report), lines


def _verify_chernoff(args) -> tuple[bool, dict, list[str]]:
    report = check_chernoff_tail(args.n, args.delta)
    lines = [
        f"Pr(Bin({report.n}, {report.delta}) <= {report.threshold}) = {report.tail_probability}",
        f"e^(-n*delta/8) = {report.bound}",
    ]
    return report.passed, asdict(report), lines


def cmd_verify(args) -> int:
    runner = {
        "partition-mean": _verify_partition_mean,
        "tightness": _verify_tightness,
        "decomposition": _verify_decomposition,
        "chernoff": _verify_chernoff,
    }[args.check]
    passed, payload, lines = runner(args)
    for line in lines:
        print(line)
    print("PASS" if passed else "FAIL")
    payload["passed"] = passed
    if args.out:
        _emit_json(payload, _out_path(args.out))
    return 0 if passed else 1


def cmd_exact_sun(args) -> int:
    result = sun_value(args.p, args.k, max_nodes=args.max_nodes)
    out = _out_path(args.out)
    if args.format == "csv":
        value_or_bracket = (
            str(result.exact) if result.exact is not None else f"[{result.lower},{result.upper}]"
        )
        _emit_csv(
            ["p", "k", "value_or_bracket", "exhaustive", "nodes"],
            [[result.p, result.k, value_or_bracket, result.search.exhaustive, result.search.nodes]],
            out,
        )
    else:
        payload = {
            "p": result.p,
            "k": result.k,
            "exact": result.exact,
            "lower": result.lower,
            "upper": result.upper,
            "exhaustive": result.search.exhaustive,
            "nodes": result.search.nodes,
            "nodes_by_depth": list(result.search.nodes_by_depth),
            "witness": family_to_dict(result.search.witness),
        }
        _emit_json(payload, out)
    if args.witness_out:
        _write(family_json(result.search.witness), _out_path(args.witness_out))
    return 0


# --- parser ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every :func:`main` call:
    parsing leaves it unchanged, and each ``add_argument`` reads the terminal size."""
    parser = argparse.ArgumentParser(
        prog="sunflowers",
        description="Set-family experiments: constructions, spread certificates, "
        "hit probabilities, sunflower extraction, exact small sunflower numbers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed=True, trials=None, out=True, fmt=False):
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"RNG seed (default {DEFAULT_SEED})")
        if trials is not None:
            p.add_argument("--trials", type=int, default=trials, help=f"number of trials (default {trials})")
        if out:
            p.add_argument("--out", help=f"output path (relative paths honor ${OUT_DIR_ENV})")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("construct", help="materialize a family and write it as JSON")
    p.add_argument("kind", choices=["block-product", "erdos-rado"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, help="block width (block-product)")
    p.add_argument("--p", type=int, help="petal count (erdos-rado)")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check-spread", help="certify r-spread or exhibit a violating set")
    p.add_argument("family")
    p.add_argument("--r", type=float, required=True)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_check_spread)

    p = sub.add_parser("find-sunflower", help="run the extraction loop, emit the trace")
    p.add_argument("family")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--C", type=float, default=ExtractionParams.C, help="spread-threshold constant (default %(default)g)")
    p.add_argument(
        "--fallback-cap",
        type=int,
        default=ExtractionParams.fallback_bruteforce_cap,
        help="fallback node budget (default %(default)d); 0 turns it off",
    )
    add_common(p)
    p.set_defaults(func=cmd_find_sunflower)

    p = sub.add_parser("estimate-hit", help="exact or Monte Carlo hit probability")
    p.add_argument("family")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument(
        "--method",
        choices=["auto", "enumeration", "inclusion-exclusion", "monte-carlo"],
        default="auto",
    )
    add_common(p, trials=DEFAULT_TRIALS, fmt=True)
    p.set_defaults(func=cmd_estimate_hit)

    p = sub.add_parser("partition", help="random t-way partition experiment")
    p.add_argument("family")
    p.add_argument("--classes", type=int, required=True)
    add_common(p, trials=DEFAULT_TRIALS)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="numeric verification checks (exit 0 iff PASS)")
    vsub = p.add_subparsers(dest="check", required=True)

    v = vsub.add_parser("partition-mean", help="mean hit classes vs t * exact hit probability")
    v.add_argument("--family", required=True)
    v.add_argument("--classes", type=int, required=True)
    add_common(v, trials=DEFAULT_TRIALS)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("tightness", help="hit probability stays below 1-eps in the sharp regime")
    v.add_argument("--k", type=int, required=True)
    v.add_argument("--r", type=int, required=True)
    v.add_argument("--delta", type=float, required=True)
    v.add_argument("--eps", type=float, required=True)
    add_common(v, seed=False)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("decomposition", help="fixed-size decomposition lower bound, exactly")
    v.add_argument("--family", required=True)
    v.add_argument("--delta", type=float, required=True)
    add_common(v, seed=False)
    v.set_defaults(func=cmd_verify)

    v = vsub.add_parser("chernoff", help="exact binomial lower tail vs e^(-n delta/8)")
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--delta", type=float, required=True)
    add_common(v, seed=False)
    v.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact-sun", help="exhaustive small sunflower numbers")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-nodes", type=int, default=None, help="search node budget (default: none)")
    p.add_argument("--witness-out", help="also write the witness family JSON here")
    add_common(p, seed=False, fmt=True)
    p.set_defaults(func=cmd_exact_sun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "construct":
        if args.kind == "block-product" and args.r is None:
            parser.error("construct block-product requires --r")
        if args.kind == "erdos-rado" and args.p is None:
            parser.error("construct erdos-rado requires --p")
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
