"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench/test_smoke.py -q

Takes about a minute: one short traced run of paths_eps.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import self_times  # noqa: E402


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.invoke", 0.0, 10.0, -1, {}],
        ["cli.runner", 1.0, 9.0, 0, {}],
        ["secular.eigen_spectrum", 2.0, 4.0, 1, {}],
        ["secular.eigen_spectrum", 5.0, 8.0, 1, {}],
    ]
    assert self_times(spans) == [2.0, 3.0, 2.0, 3.0]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths_eps", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_run_reports_every_layer():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paths_eps", "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 10  # two passes of five invocations
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["trajectories.solves_per_point"]["value"] >= 1.0
    assert result["metrics"]["monodromy.transport_solves"]["value"] > 0
