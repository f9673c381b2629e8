"""``scripts/check_oracle.py`` grades the checkout it belongs to: run from
a copy of the tree, it imports that copy's ``solaris_ray``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SF_DIR

REPO = Path(__file__).resolve().parents[1]

_LOAD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("check_oracle", sys.argv[1])
spec.loader.exec_module(importlib.util.module_from_spec(spec))
import solaris_ray
print(solaris_ray.__file__)
"""


def test_check_oracle_imports_the_package_of_its_own_tree(tmp_path):
    tree = tmp_path / "copy"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(REPO / "scripts" / "check_oracle.py", tree / "scripts")
    (tree / "solaris_ray").mkdir()
    (tree / "solaris_ray" / "__init__.py").write_text("")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, "-c", _LOAD, str(tree / "scripts" / "check_oracle.py")],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    assert Path(out.stdout.strip()).resolve() == (tree / "solaris_ray" / "__init__.py").resolve()


# a gate registry whose first gate fails in a Ray worker with
# ModuleNotFoundError, as a worker that cannot import solaris_ray does
_ENTRY = """
import pandas as pd
import ray.data


def _needs_absent_module(batch):
    import absent_codec  # noqa: F401
    return batch


def queries():
    return {"broken": lambda sf: ray.data.range(4).map_batches(_needs_absent_module),
            "fine": lambda sf: pd.DataFrame({"a": [1]})}


def oracle_sql():
    return {"broken": "SELECT 1 AS id", "fine": "SELECT 1 AS a"}
"""

# with the context flag the worker's error reaches the sweep as
# RayTaskError(ModuleNotFoundError), an ImportError, as it does from a
# plain Ray task; without it Ray Data wraps a UDF's error in
# UserCodeException
_SWEEP = """
import importlib.util, sys
import ray
from ray.data import DataContext
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
DataContext.get_current().raise_original_map_exception = True
spec = importlib.util.spec_from_file_location("check_oracle", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
sys.argv = ["check_oracle", "--sf-dir", sys.argv[2]]
raise SystemExit(mod.main())
"""


def test_worker_import_error_fails_its_gate_and_the_sweep_goes_on(tmp_path):
    tree = tmp_path / "copy"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(REPO / "scripts" / "check_oracle.py", tree / "scripts")
    (tree / "__ray_entry__.py").write_text(_ENTRY)
    # the workers import the fake registry from the environment they inherit
    env = {**os.environ, "PYTHONPATH": str(tree)}
    out = subprocess.run([sys.executable, "-c", _SWEEP, str(tree / "scripts" / "check_oracle.py"),
                          SF_DIR],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    log = out.stdout + out.stderr
    assert "FAIL broken: engine raised RayTaskError(ModuleNotFoundError)" in out.stdout, log
    assert "PASS fine: 1 rows" in out.stdout, log
    assert out.returncode == 1, log


# one gate logs Ray Data's schema warning once, as the streaming executor
# does when a shuffle partition leaves a block with no columns
_WARN_ENTRY = """
import logging

import pandas as pd


def _warns(sf):
    logging.getLogger("ray.data._internal.execution.streaming_executor_state").warning(
        "Operator produced a RefBundle with a different schema than the previous one.")
    return pd.DataFrame({"a": [1]})


def queries():
    return {"warns": _warns, "quiet": lambda sf: pd.DataFrame({"a": [1]})}


def oracle_sql():
    return {"warns": "SELECT 1 AS a", "quiet": "SELECT 1 AS a"}
"""


def test_schema_warnings_are_counted_per_gate_and_in_the_summary(tmp_path):
    tree = tmp_path / "copy"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(REPO / "scripts" / "check_oracle.py", tree / "scripts")
    (tree / "__ray_entry__.py").write_text(_WARN_ENTRY)
    env = {**os.environ, "PYTHONPATH": str(tree)}
    out = subprocess.run([sys.executable, "-c", _SWEEP, str(tree / "scripts" / "check_oracle.py"),
                          SF_DIR],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    log = out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert any(l.startswith("PASS warns:") and l.endswith("[1 schema warnings]")
               for l in lines), log
    assert any(l.startswith("PASS quiet:") and l.endswith("[0 schema warnings]")
               for l in lines), log
    assert "SUMMARY 2 PASS, 0 rows-only, 0 FAIL, 1 schema warnings" in out.stdout, log
    assert out.returncode == 0, log


# one gate runs two Ray Data executions: a materialize, then a map over
# its blocks (reading the materialized rows back runs none); the other
# runs one
_RUNS_ENTRY = """
import ray.data


def _two(sf):
    ds = ray.data.range(8).materialize()
    assert len(ds.take_all()) == 8
    return ds.map_batches(lambda b: b).to_pandas()


def queries():
    return {"two": _two, "one": lambda sf: ray.data.range(3).materialize().to_pandas()}


def oracle_sql():
    return {"two": "SELECT range AS id FROM range(8)", "one": "SELECT range AS id FROM range(3)"}
"""


def test_executions_are_counted_per_gate_and_in_the_summary(tmp_path):
    tree = tmp_path / "copy"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(REPO / "scripts" / "check_oracle.py", tree / "scripts")
    (tree / "__ray_entry__.py").write_text(_RUNS_ENTRY)
    env = {**os.environ, "PYTHONPATH": str(tree)}
    out = subprocess.run([sys.executable, "-c", _SWEEP, str(tree / "scripts" / "check_oracle.py"),
                          SF_DIR],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    log = out.stdout + out.stderr
    lines = out.stdout.splitlines()
    assert any(l.startswith("PASS two:") and "[2 executions]" in l for l in lines), log
    assert any(l.startswith("PASS one:") and "[1 executions]" in l for l in lines), log
    assert "SUMMARY 2 PASS, 0 rows-only, 0 FAIL, 0 schema warnings, 3 executions" in out.stdout, log
    assert out.returncode == 0, log


# one gate reports the CPUs of the session the script started
_CPU_ENTRY = """
import pandas as pd
import ray


def queries():
    return {"cpus": lambda sf: pd.DataFrame({"cpus": [int(ray.cluster_resources()["CPU"])]})}


def oracle_sql():
    return {"cpus": "SELECT 1 AS cpus"}
"""


def test_num_cpus_sizes_the_session(tmp_path):
    tree = tmp_path / "copy"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(REPO / "scripts" / "check_oracle.py", tree / "scripts")
    (tree / "__ray_entry__.py").write_text(_CPU_ENTRY)
    env = {**os.environ, "PYTHONPATH": str(tree)}
    out = subprocess.run([sys.executable, str(tree / "scripts" / "check_oracle.py"),
                          "--sf-dir", SF_DIR, "--num-cpus", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    log = out.stdout + out.stderr
    assert "PASS cpus: 1 rows" in out.stdout, log
    assert out.returncode == 0, log


# the first gate outlives the per-gate timeout; the second reports the
# CPUs of the session it runs in
_SLOW_ENTRY = """
import time

import pandas as pd
import ray


def queries():
    return {"sleeps": lambda sf: time.sleep(600),
            "after": lambda sf: pd.DataFrame({"cpus": [int(ray.cluster_resources()["CPU"])]})}


def oracle_sql():
    return {"sleeps": "SELECT 1 AS a", "after": "SELECT 1 AS cpus"}
"""

_SHORT_TIMEOUT_SWEEP = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("check_oracle", sys.argv[1])
mod = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mod)
mod.GATE_TIMEOUT_S = 3
sys.argv = ["check_oracle", "--sf-dir", sys.argv[2], "--num-cpus", "1"]
raise SystemExit(mod.main())
"""


def test_gate_past_the_timeout_fails_and_the_sweep_goes_on(tmp_path):
    tree = tmp_path / "copy"
    (tree / "scripts").mkdir(parents=True)
    shutil.copy(REPO / "scripts" / "check_oracle.py", tree / "scripts")
    (tree / "__ray_entry__.py").write_text(_SLOW_ENTRY)
    env = {**os.environ, "PYTHONPATH": str(tree)}
    out = subprocess.run([sys.executable, "-c", _SHORT_TIMEOUT_SWEEP,
                          str(tree / "scripts" / "check_oracle.py"), SF_DIR],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    log = out.stdout + out.stderr
    assert "FAIL sleeps: timeout (3s)" in out.stdout, log
    # graded in a fresh session of the same size
    assert "PASS after: 1 rows" in out.stdout, log
    assert "SUMMARY 1 PASS, 0 rows-only, 1 FAIL" in out.stdout, log
    assert out.returncode == 1, log
