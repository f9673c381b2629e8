"""The command against its contract: metric names, any working directory,
and a clean failure when the library is missing."""

import json
import os
import shutil
import subprocess
import sys

from layerbench import run
from layerbench.workloads import STAGES, WORKLOADS

ROOT = run.ROOT


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(STAGES)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_runs_from_a_foreign_working_directory(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "layerbench", "run.py"), "--workload",
         "tiles_join", "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_printing_a_result_when_the_library_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "layerbench"), tmp_path / "layerbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "tiles_join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
