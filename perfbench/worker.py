"""Run one workload in this process and print its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N (--seconds S | --passes P | --setup-only)
                                [--traced]

``run.py`` starts one fresh worker per measurement, so ``peak_mb`` (this
process's peak resident set) belongs to one workload.  Set-up ends before the
warm-up op, once the library is imported, the workload's families are built
and the first pass's input files are written.

Times are CPU time of this process (``time.process_time``), scaled to the
reference machine speed (``speed.py``).  The worker is single-threaded and
its ops are CPU-bound, so on an idle machine an op's CPU time is its wall
time; CPU time leaves out the time the operating system gives to other
processes, and the scaling leaves out the host's own slow spells.  The raw
CPU and wall-clock time of each pass, and the speed factor, are recorded
beside the scaled figures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_library():
    """Import ``sunflowers`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "sunflowers" / "__init__.py").is_file():
        raise SystemExit(f"worker: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import sunflowers

    if Path(sunflowers.__file__).resolve().parent != (SRC / "sunflowers").resolve():
        raise SystemExit(f"worker: imported sunflowers from {sunflowers.__file__}, not {SRC}")


def run_ops(ops, tracer, probe):
    """CPU time of each op, and the wall-clock time of all of them; the tracer
    records only inside the timed call, and the probe samples the machine's
    speed between calls."""
    outputs, times = [], []
    wall = 0.0
    for op in ops:
        if tracer is not None:
            tracer.active = True
        wall_start, start = time.perf_counter(), time.process_time()
        try:
            out = op.call()
        except Exception:  # a raising op is a failed op, recorded and reported
            out = _Raised(traceback.format_exc(limit=3))
        finally:
            elapsed = time.process_time() - start
            wall += time.perf_counter() - wall_start
            if tracer is not None:
                tracer.active = False
        outputs.append(out)
        times.append(elapsed)
        if probe is not None:
            probe.after_op(elapsed)
    return outputs, times, wall


class _Raised:
    def __init__(self, text):
        self.text = text


def check_ops(ops, outputs):
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, _Raised):
            failures.append(f"{op.kind}: raised {out.text.strip().splitlines()[-1]}")
            continue
        try:
            problem = op.check(out)
        except Exception as exc:  # a malformed output can break its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failures.append(f"{op.kind}: {problem}")
    return failures


def run(workload_cls, seed, scale, workdir, seconds=None, passes=None, setup_only=False,
        tracer=None):
    """Set up, warm up, then time passes until ``seconds`` have gone by, or
    exactly ``passes`` passes; returns the raw record that ``summarise`` reduces."""
    workload = workload_cls(seed, scale, workdir)
    first_pass = workload.make_pass(0)
    setup_cpu = time.process_time()
    probe = speed.Probe()
    result = {"workload": workload.name, "seed": seed, "setup_s": setup_cpu * probe.median_factor()}
    if setup_only:
        return result

    run_ops([workload.warmup_op()], None, None)  # untimed and unchecked
    probe.sample()  # the speed the first ops run at, after the warm-up
    op_times, pass_lengths, pass_cpus, pass_walls = [], [], [], []
    failures, props, kinds = [], [], []
    loop_start = time.perf_counter()
    ops_per_pass = len(first_pass)
    while True:
        ops = first_pass if not pass_cpus else workload.make_pass(len(pass_cpus))
        first_pass = None
        outputs, times, wall = run_ops(ops, tracer, probe)
        pass_lengths.append(len(times))
        pass_cpus.append(sum(times))
        pass_walls.append(wall)
        op_times.extend(times)
        kinds.extend(op.kind for op in ops)
        failures.extend(check_ops(ops, outputs))
        props.extend(op.props for op in ops)  # keep no op alive: its input would count in peak_mb
        if passes is not None and len(pass_cpus) >= passes:
            break
        if passes is None and time.perf_counter() - loop_start >= seconds:
            break

    factors = probe.factors()
    op_times = [t * f for t, f in zip(op_times, factors)]
    ends = list(itertools.accumulate(pass_lengths))
    result.update({
        "ops_per_pass": ops_per_pass,
        "failed": len(failures),
        "failures": failures[:20],
        "pass_times": [sum(op_times[end - n:end]) for end, n in zip(ends, pass_lengths)],
        "op_times": op_times,
        "speed": probe.median_factor(),
        "pass_cpus": pass_cpus,
        "pass_walls": pass_walls,
        "op_kinds": kinds,
        "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "shares": workload.shares(props),
    })
    if tracer is not None:
        result["layers"] = tracer.metrics(scale=probe.median_factor())
        result["layers_missing"] = tracer.missing
        result["counters_broken"] = tracer.broken_counters
    return result


def summarise(results):
    """The end-to-end figures of one or more timed workers of a workload, their
    passes and ops pooled."""
    pass_times = [t for r in results for t in r["pass_times"]]
    op_times = [t for r in results for t in r["op_times"]]
    kinds = [k for r in results for k in r["op_kinds"]]
    attempted = len(op_times)
    return {
        "workload": results[0]["workload"],
        "seed": results[0]["seed"],
        "passes": len(pass_times),
        "ops_per_pass": results[0]["ops_per_pass"],
        "attempted": attempted,
        "failed": sum(r["failed"] for r in results),
        "failures": [f for r in results for f in r["failures"]][:20],
        "norm_pass_s": statistics.median(pass_times),
        "norm_op_ms_p50": 1e3 * statistics.median(op_times),
        "norm_op_ms_p90": 1e3 * statistics.quantiles(op_times, n=10)[8] if attempted > 1
        else 1e3 * op_times[0],
        "peak_mb": max(r["peak_mb"] for r in results),
        "speed": statistics.median(r["speed"] for r in results),
        "pass_cpu_s": statistics.median(c for r in results for c in r["pass_cpus"]),
        "pass_wall_s": statistics.median(w for r in results for w in r["pass_walls"]),
        "shares": {name: sum(r["shares"][name] * len(r["op_times"]) for r in results) / attempted
                   for name in results[0]["shares"]},
        "op_ms_by_kind": {kind: 1e3 * statistics.median(t for k, t in zip(kinds, op_times) if k == kind)
                          for kind in dict.fromkeys(kinds)},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    import_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, "full", workdir,
                     seconds=args.seconds, passes=args.passes, setup_only=args.setup_only,
                     tracer=tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
