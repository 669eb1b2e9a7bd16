"""Smoke test for the benchmark: every workload at a one-second run, no timing gates.

    python -m pytest bench/test_bench.py -q

Checks that each run exits 0 with a result line carrying every metric named
in BENCHMARK.json with its unit, and that the benchmark refuses to run (exit
code != 0, no result) when the package sources are missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from workloads import SENTENCE_STRATA  # noqa: E402


def run(root, workload, trace, seconds=1):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload == "crack":  # a 1 s run cycles one round; each input counts once
        assert result["attempted"] == SENTENCE_STRATA
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["metrics"]) == {m["name"] for m in expected}


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "traces", ".work-*"))
    proc = run(tmp_path, "bulk", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
