"""The benchmark's own checks, on tiny inputs:

    python3 -m pytest -q bench/test_run.py

Every workload emits every metric that BENCHMARK.json names, with its unit,
and passes its output checks; the exact counts of a traced run repeat
across two runs of the same seed; and without the library the benchmark
exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "bytes"}


def run(workload, trace, seed=5, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=120)
    return proc


def result(workload, trace, seed=5):
    proc = run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    a, b = (result(workload, 1)["metrics"] for _ in range(2))
    counts = {k for k, v in a.items() if v["unit"] in COUNT_UNITS}
    assert counts
    assert {k: a[k]["value"] for k in counts} == {k: b[k]["value"] for k in counts}


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
