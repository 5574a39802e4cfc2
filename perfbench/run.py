"""The repository benchmark: one workload per call, or all four.

    python3 perfbench/run.py --workload mc-hit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh worker process (``worker.py``), single
threaded, with the library's defaults; times are the worker's CPU time,
scaled to a reference machine speed (see ``speed.py``).  With ``--trace 0`` the run reports the end-to-end metrics
named in ``BENCHMARK.json``; set-up is measured in several fresh processes
and reported as their median.  With ``--trace 1`` it
runs a fixed number of passes in untraced and traced workers in turn, and
reports the per-layer metrics plus ``trace.overhead_frac``.  Human-readable lines
come first; the last line of standard output is one JSON object.  The exit
code is 0 only when every worker finished and printed its result; failed
output checks are reported through ``correct`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("mc-hit", "extract", "cli-certify", "sun-search")
# inputs that do not depend on the seed: each worker makes one pass, and a run
# repeats the pass in fresh workers, so no cache carries from pass to pass
ONE_PASS_PER_WORKER = ("sun-search",)
MIN_FRESH_PASSES = 4
# seconds one pass takes, input staging and checks included, at the commit that
# defined the benchmark; fixes the traced run's pass count, so that its counts
# repeat exactly for a seed
NOMINAL_PASS_S = {"mc-hit": 2.6, "extract": 0.13, "cli-certify": 4.5, "sun-search": 6.0}
SETUP_PROBES = 4  # set-up-only workers per run, half before and half after the timed ones
TRACE_PAIRS = 3  # untraced/traced worker pairs in a traced run
DEADLINE_S = 170  # a run stops its workers and fails past this
# no numerical library starts threads of its own: the worker stays single-threaded
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise WorkerError(f"no {spec_path.name} beside {HERE.name}")
    return json.loads(spec_path.read_text())


def run_worker(args: list[str], deadline: float) -> dict:
    """One fresh worker; returns its result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("run deadline passed before a worker could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {' '.join(args)} passed the run deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trace_passes(workload: str, seconds: float) -> int:
    """Passes per worker of a traced run, fixed by the run length alone."""
    return max(1, math.floor(seconds / (2 * TRACE_PAIRS) / NOMINAL_PASS_S[workload]))


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_probe() -> float:
        return run_worker(base + ["--setup-only"], deadline)["setup_s"]

    # set-up probes before and after the timed workers, so that one slow
    # moment of the machine does not set the median
    setups = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    if workload in ONE_PASS_PER_WORKER:
        # at least four passes: one op of the search varies by up to a third
        # from pass to pass, so the metrics need medians over several workers
        timed, begin = [], time.monotonic()
        while len(timed) < MIN_FRESH_PASSES or time.monotonic() - begin < seconds:
            timed.append(run_worker(base + ["--passes", "1"], deadline))
    else:
        timed = [run_worker(base + ["--seconds", str(seconds)], deadline)]
    setups += [result["setup_s"] for result in timed]
    setups += [setup_probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    result = worker.summarise(timed)
    result["setup_s"] = statistics.median(setups)
    result["setup_runs"] = setups
    return result


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced and traced workers in turn, on the same passes; the layers are
    the median over the traced workers, and the overhead the median of the
    pairs' ratios, so that a slow moment of the machine falls on one pair."""
    base = ["--workload", workload, "--seed", str(seed), "--passes", str(trace_passes(workload, seconds))]
    plain, traced = [], []
    for _ in range(TRACE_PAIRS):
        plain.append(run_worker(base, deadline))
        traced.append(run_worker(base + ["--traced"], deadline))
    result = worker.summarise(plain + traced)
    layers = {name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_frac"] = statistics.median(
        sum(t["pass_times"]) / sum(p["pass_times"]) - 1.0 for p, t in zip(plain, traced))
    result.update(layers=layers, layers_missing=traced[0]["layers_missing"],
                  counters_broken=traced[0]["counters_broken"])
    return result


def report(result: dict, metrics: dict, traced: bool) -> None:
    """Human-readable lines for one workload."""
    workers = f"{2 * TRACE_PAIRS} untraced and traced workers" if traced else "timed workers"
    print(f"== {result['workload']}  seed={result['seed']}  ops={result['attempted']} in "
          f"{result['passes']} passes of {result['ops_per_pass']} ops by {workers}")
    for name, entry in metrics.items():
        print(f"  {name:<48} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'speed factor (nominal / measured reference)':<48} {result['speed']:>16.6g}")
    print(f"  {'pass_cpu_s (unscaled CPU time, median)':<48} {result['pass_cpu_s']:>16.6g} s")
    print(f"  {'pass_wall_s (wall clock, median)':<48} {result['pass_wall_s']:>16.6g} s")
    if "setup_runs" in result:
        print(f"  {'setup_s of each fresh worker':<48} "
              + " ".join(f"{s:.4f}" for s in result["setup_runs"]))
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':<48} {fail_frac:>16.6g} ratio  "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for name, share in result["shares"].items():
        print(f"  {'share.' + name:<48} {share:>16.4f} ratio")
    for kind, ms in result["op_ms_by_kind"].items():
        print(f"  {'norm_op_ms_p50.' + kind:<48} {ms:>16.6g} ms")
    if traced:
        for name in result["layers_missing"]:
            print(f"  boundary {name} not found: its metrics are absent")
        for name, why in result["counters_broken"].items():
            print(f"  counts of {name} unavailable: {why}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def select(entries: list[dict], source: dict) -> dict:
    return {e["name"]: {"value": source[e["name"]], "unit": e["unit"]}
            for e in entries if e["name"] in source}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sunflowers benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        spec = load_spec()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        deadline = time.monotonic() + DEADLINE_S * len(names)
        results = []
        for name in names:
            if args.trace:
                result = measure_traced(name, args.seed, args.seconds, deadline)
                metrics = select(spec["per_layer"], result["layers"])
            else:
                result = measure(name, args.seed, args.seconds, deadline)
                metrics = select(spec["end_to_end"], result)
            report(result, metrics, bool(args.trace))
            results.append((name, result, metrics))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for _, r, _ in results)
    failed = sum(r["failed"] for _, r, _ in results)
    if len(results) == 1:
        metrics = results[0][2]
    else:
        metrics = {f"{name}.{key}": value for name, _, m in results for key, value in m.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
