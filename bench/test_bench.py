"""Checks of the benchmark itself; run with ``python3 -m pytest bench``.

Two traced runs of one seed must agree exactly on every count the
benchmark publishes for later changes to claim: gates built, emitted and
applied, provider statuses, store bytes and hash, report rows.  The metric
names must match ``BENCHMARK.json``, and a directory without the package
sources must be refused without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "B", "ratio"}


def run(workload, seed, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def traced_result(workload, seed):
    proc = run(workload, seed, 1)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed{seed}-trace1.json").read_text())
    return last, full


@pytest.mark.parametrize("workload", ["campaign-mixed", "statevector", "report"])
def test_exact_counts_repeat(workload):
    first, first_full = traced_result(workload, 7)
    second, second_full = traced_result(workload, 7)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    def exact(result):
        return {
            name: m["value"]
            for name, m in result["metrics"].items()
            if m["unit"] in EXACT_UNITS and not name.startswith("trace")
        }

    assert exact(first) == exact(second)
    assert first_full["passes"][0]["outputs"] == second_full["passes"][0]["outputs"]


def test_end_to_end_metric_names():
    proc = run("report", 3, 0)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("report", 1, 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
