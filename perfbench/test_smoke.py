"""Smoke test of the benchmark on a tiny family (set:2,6, r = 15).

    python3 -m pytest perfbench/test_smoke.py

Each case runs perfbench/run.py in a fresh process, as the benchmark is run.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, trace: int, script: Path = HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--workload", "smoke", "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported_and_finite(trace, section):
    proc = run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_frac = 0
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], name
        assert math.isfinite(metric["value"]), name
    assert re.search(r"^failed_frac\s+0\s", proc.stdout, re.MULTILINE)


def test_fails_without_package_source(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark's files
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, 0, tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
