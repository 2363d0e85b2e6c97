"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load()

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# The smallest sizes whose manifest splits give a full training batch of 32.
TINY = run.Sizes(subject_bundles=50, train_bundles=60)


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCH[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(workload, trace):
    res = run.run(workload, seed=3, seconds=0.5, trace=trace, sizes=TINY)
    line = res["line"]
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_seed_fixes_the_inputs(tmp_path):
    def blobs(seed, sub):
        workload = run.SubjectOracle(TINY, seed)
        workload.setup(run.Tracer(False), tmp_path / sub)
        return workload.blobs

    assert blobs(5, "a") == blobs(5, "b") != blobs(6, "c")


def test_fails_without_the_library(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, the command
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"], "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
