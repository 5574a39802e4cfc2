"""Smoke test: the demo scripts run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sunflowers

DEMOS = Path(__file__).resolve().parent.parent / "demos"
FAST_DEMOS = [
    "01_sunflowers_and_families.py",
    "02_transversal_constructions.py",
    "03_hit_probabilities.py",
    "04_partition_experiment.py",
    "05_extraction_walkthrough.py",
    "06_exact_sunflower_numbers.py",
    "07_threshold_sweep.py",
]


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_demo_runs(name, tmp_path):
    src = str(Path(sunflowers.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
