"""Tests of the benchmark itself: tiny runs pass their checks, wrong outputs
are counted as failures, and the tracer survives a missing boundary.

    python3 -m pytest perfbench/tests -q
"""

import collections
import dataclasses
import itertools
import json
import math
import random
import shutil
import subprocess
import sys

import pytest
from sunflowers import cli, extraction, families, probability, sunvalues

import speed
import tracing
import worker
import workloads
from conftest import BENCH


def tiny_run(name, tmp_path, tracer=None):
    raw = worker.run(workloads.WORKLOADS[name], seed=7, scale="tiny", workdir=tmp_path, passes=1,
                     tracer=tracer)
    result = worker.summarise([raw])
    if tracer is not None:
        result.update({key: raw[key] for key in ("layers", "layers_missing", "counters_broken")})
    return result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_check(name, tmp_path):
    result = tiny_run(name, tmp_path)
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["failures"]
    assert result["norm_pass_s"] > 0 and result["norm_op_ms_p90"] >= result["norm_op_ms_p50"] > 0


def test_summarise_pools_the_workers_of_a_run(tmp_path):
    raws = [worker.run(workloads.SunSearch, seed=7, scale="tiny", workdir=tmp_path, passes=1)
            for _ in range(3)]
    result = worker.summarise(raws)
    assert result["passes"] == 3
    assert result["attempted"] == 3 * len(workloads.SunSearch.TINY_GRID)
    assert result["failed"] == 0
    assert result["peak_mb"] == max(raw["peak_mb"] for raw in raws)


def test_op_is_scaled_by_the_reference_samples_around_it(monkeypatch):
    machine = {"reference_s": 0.002}
    monkeypatch.setattr(speed, "reference_s", lambda: machine["reference_s"])
    probe = speed.Probe()
    probe.after_op(speed.SAMPLE_EVERY_S)  # a sample follows this op
    machine["reference_s"] = 0.004  # the machine runs at half speed from here on
    probe.after_op(0.01)  # too short for a sample: the closing one brackets it
    nominal = speed.NOMINAL_REF_S
    assert probe.factors() == pytest.approx([nominal / 0.002, 2 * nominal / 0.006])


def test_planted_families_violate_at_their_core():
    for seed in range(150):
        n, k, p, sets = workloads.Extract._planted_family(random.Random(seed))
        r = 4.0 * p * math.log(k)
        through = collections.Counter(core for member in sets
                                      for core in itertools.combinations(bits(member), k - 2))
        assert max(through.values()) > r ** 2, (seed, n, k, p)


def bits(mask):
    return [e for e in range(mask.bit_length()) if mask >> e & 1]


def test_inputs_depend_only_on_the_seed(tmp_path):
    def traces(seed):
        return [op.call().to_dict() for op in workloads.Extract(seed, "tiny", tmp_path).make_pass(0)]

    assert traces(3) == traces(3)
    assert traces(3) != traces(4)
    seeds = {workloads.op_seed(3, p, i) for p in range(-1, 3) for i in range(20)}
    assert len(seeds) == 80


def test_perturbed_p_hat_is_counted(monkeypatch, tmp_path):
    original = probability.mc_hit_probability

    def perturbed(*args, **kwargs):
        est = original(*args, **kwargs)
        return dataclasses.replace(est, p_hat=est.p_hat + 1e-9)

    monkeypatch.setattr(probability, "mc_hit_probability", perturbed)
    result = tiny_run("mc-hit", tmp_path)
    # every Monte Carlo op fails the bit-identity check; partition ops still pass
    mc_ops = sum(1 for kind in workloads.McHit.kinds if kind != "partition")
    assert result["failed"] == mc_ops
    assert "structural sampler" in result["failures"][0]


def test_non_sunflower_is_counted(monkeypatch, tmp_path):
    original = extraction.extract_sunflower

    def broken(family, params):
        trace = original(family, params)
        if trace.sunflower is None or len(family) <= params.p:
            return trace
        spare = next(m for m in family.sets if m not in trace.sunflower.petals)
        petals = (spare,) + trace.sunflower.petals[1:]
        if workloads.is_sunflower_of(list(petals), trace.sunflower.core):
            return trace
        return dataclasses.replace(trace, sunflower=families.Sunflower(trace.sunflower.core, petals))

    monkeypatch.setattr(extraction, "extract_sunflower", broken)
    result = tiny_run("extract", tmp_path)
    assert result["failed"] >= 1
    assert any("not a sunflower" in f for f in result["failures"])


def test_wrong_spreadness_is_counted(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "spreadness", lambda family: 2.5)
    result = tiny_run("cli-certify", tmp_path)
    spread_ops = sum(1 for kind in workloads.CliCertify.kinds if kind.startswith(("certify", "refute")))
    assert result["failed"] == spread_ops


def test_wrong_search_result_is_counted(monkeypatch, tmp_path):
    original = sunvalues.max_sunflower_free

    def short(p, k, **kwargs):
        found = original(p, k, **kwargs)
        members = found.witness.sets[:-1]
        return dataclasses.replace(found, max_size=len(members),
                                   witness=families.SetFamily(found.witness.ground_size, k, members))

    monkeypatch.setattr(sunvalues, "max_sunflower_free", short)
    result = tiny_run("sun-search", tmp_path)
    assert result["failed"] == result["attempted"]


def test_raising_op_is_counted(monkeypatch, tmp_path):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(probability, "partition_experiment", boom)
    result = tiny_run("mc-hit", tmp_path)
    assert result["failed"] == workloads.McHit.kinds.count("partition")
    assert "RuntimeError: injected" in result["failures"][0]


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


@pytest.mark.parametrize("name, layer", [
    ("mc-hit", "probability.mc_hit"),
    ("extract", "extraction.extract_sunflower"),
    ("cli-certify", "cli.main"),
    ("sun-search", "sunvalues.max_sunflower_free"),
])
def test_traced_run_reports_layers(name, layer, tracer, tmp_path):
    result = tiny_run(name, tmp_path, tracer=tracer)
    layers = result["layers"]
    assert result["failed"] == 0, result["failures"]
    assert layers[f"{layer}.calls"] >= 1
    assert all(layers[f"{b.name}.self_s"] >= 0 for b in tracing.BOUNDARIES)
    assert not result["counters_broken"]
    if name == "mc-hit":
        # rng spans nest inside the Monte Carlo span and are not part of its self time
        assert layers["rng.uniform_block.calls"] >= layers["probability.mc_hit.calls"]
        assert layers["probability.mc_hit.pair_tests"] > 0
    if name == "cli-certify":
        assert layers["spread.spread_witness.calls"] >= 1
        assert layers["families.load_family.bytes"] > 0


def test_missing_boundary_makes_metrics_absent(monkeypatch, tmp_path):
    gone = tracing.Boundary("extraction.removed", "extraction", "no_such_function")
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (gone,))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = tiny_run("extract", tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    assert result["layers_missing"] == ["extraction.removed"]
    assert not any(key.startswith("extraction.removed") for key in result["layers"])
    assert result["layers"]["extraction.extract_sunflower.calls"] >= 1


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")


def test_benchmark_spec_names_every_reported_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layer_names = {e["name"] for e in spec["per_layer"]}
    tracer = tracing.Tracer()
    tracer.installed = [b.name for b in tracing.BOUNDARIES]
    tracer.calls = dict.fromkeys(tracer.installed, 0)
    tracer.counts = {b.name: dict.fromkeys(b.quantities, 0) for b in tracing.BOUNDARIES if b.counter}
    reported = set(tracer.metrics()) | {"trace.overhead_frac"}
    assert layer_names <= reported
