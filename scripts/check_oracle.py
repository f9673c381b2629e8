"""Local mimic of the driver's correctness gate.

Runs each __ray_entry__.queries() callable at --sf-dir, runs the
matching oracle_sql() in DuckDB over the same parquet (views
pre-registered), and compares row count, sorted schema names, and an
order-insensitive value hash (columns sorted by name, rows sorted).
Each PASS/FAIL line and the summary also count the Ray Data
executions the gate started (each pays a fixed cost of its own) and
Ray Data's "different schema" warnings: a shuffle partition that left a
block with no columns logs one.

Usage: python scripts/check_oracle.py [--sf-dir /root/testdata/sf0.01]
       [--num-cpus 8] [names...]

``--num-cpus`` sizes the Ray session the script starts (default 8); run
it at the CPU count of the benchmark being checked.  A gate that runs
longer than ``GATE_TIMEOUT_S`` fails with ``timeout``; the script then
restarts the Ray session at the same CPU count and grades the next gate.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import signal
import sys
import time
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

# grade the checkout this script belongs to, wherever it was started from
ROOT = str(Path(__file__).resolve().parents[1])
sys.path.insert(0, ROOT)

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()

# seconds one gate may run; the slowest sf0.01 gate takes under 10 s
# on one CPU, and a gate that cannot get its resources never finishes
GATE_TIMEOUT_S = 300


class GateTimeout(BaseException):
    """Raised in the main thread when a gate passes GATE_TIMEOUT_S
    (a BaseException, so that no ``except Exception`` in Ray keeps it)."""


def _on_alarm(signum, frame):
    raise GateTimeout


def start_session(num_cpus: int) -> None:
    import ray

    path = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    # workers import solaris_ray from this checkout whatever the cwd
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             runtime_env={"env_vars": {"PYTHONPATH": path}})


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    try:
        from ray.data import Dataset
    except ImportError:
        Dataset = ()
    if isinstance(obj, Dataset):
        obj = obj.to_pandas()  # a worker's error propagates to the gate
    if isinstance(obj, pa.Table):
        obj = obj.to_pandas()
    return obj


class SchemaWarnings(logging.Handler):
    """Counts log records that contain "different schema"."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "different schema" in record.getMessage():
            self.count += 1


class Executions:
    """Counts the Ray Data executions this process starts: runs of the
    streaming executor over a plan that is not already materialized."""

    def __init__(self):
        from ray.data._internal.execution.operators.input_data_buffer import InputDataBuffer
        from ray.data._internal.execution.streaming_executor import StreamingExecutor

        self.count = 0
        run = StreamingExecutor.execute

        def execute(executor, dag, *args, **kwargs):
            if not isinstance(dag, InputDataBuffer):
                self.count += 1
            return run(executor, dag, *args, **kwargs)

        StreamingExecutor.execute = execute


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    # canonicalize dtypes: ints -> int64, floats -> float64
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        else:
            df[c] = df[c].astype(str)
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return hashlib.md5(pd.util.hash_pandas_object(df, index=False).values.tobytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    ap.add_argument("--num-cpus", type=int, default=8)
    ap.add_argument("names", nargs="*")
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        start_session(args.num_cpus)

    import __ray_entry__ as E

    qs = E.queries()
    oracles = E.oracle_sql()
    names = args.names or list(qs)

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{args.sf_dir}/{t}.parquet')")

    import ray.data  # its import configures the logger, dropping earlier handlers

    warned = SchemaWarnings()
    logging.getLogger("ray.data").addHandler(warned)
    runs = Executions()
    n_pass = n_rows_only = n_fail = 0
    signal.signal(signal.SIGALRM, _on_alarm)
    for name in names:
        t0 = time.time()
        before, runs_before = warned.count, runs.count

        def counts() -> str:
            return (f"[{runs.count - runs_before} executions] "
                    f"[{warned.count - before} schema warnings]")

        try:
            signal.setitimer(signal.ITIMER_REAL, GATE_TIMEOUT_S)
            mine = to_pandas(qs[name](args.sf_dir))
        except GateTimeout:
            print(f"FAIL {name}: timeout ({GATE_TIMEOUT_S}s) {counts()}")
            n_fail += 1
            # the gate's tasks and actors still hold the session's CPUs
            ray.shutdown()
            start_session(args.num_cpus)
            continue
        except Exception as e:
            print(f"FAIL {name}: engine raised {type(e).__name__}: {e} {counts()}")
            n_fail += 1
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        dt = time.time() - t0
        tally = counts()
        if name not in oracles:
            print(f"ok?  {name}: rows-only check, {len(mine)} rows ({dt:.1f}s) {tally}")
            n_rows_only += 1
            continue
        try:
            oracle = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle SQL raised {type(e).__name__}: {e} {tally}")
            n_fail += 1
            continue
        problems = []
        if len(mine) != len(oracle):
            problems.append(f"rows {len(mine)} vs {len(oracle)}")
        if sorted(mine.columns) != sorted(oracle.columns):
            problems.append(f"schema {sorted(mine.columns)} vs {sorted(oracle.columns)}")
        elif value_hash(mine) != value_hash(oracle):
            problems.append("value-hash mismatch")
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)} ({dt:.1f}s) {tally}")
            n_fail += 1
            # show a diff sample
            if sorted(mine.columns) == sorted(oracle.columns) and len(mine) and len(oracle):
                a = mine[sorted(mine.columns)].sort_values(by=sorted(mine.columns)).reset_index(drop=True)
                b = oracle[sorted(oracle.columns)].sort_values(by=sorted(oracle.columns)).reset_index(drop=True)
                n = min(len(a), len(b))
                neq = (a.iloc[:n].astype(str).values != b.iloc[:n].astype(str).values).any(axis=1)
                idx = np.nonzero(neq)[0][:3]
                for i in idx:
                    print(f"   mine:   {a.iloc[i].to_dict()}")
                    print(f"   oracle: {b.iloc[i].to_dict()}")
        else:
            print(f"PASS {name}: {len(mine)} rows ({dt:.1f}s) {tally}")
            n_pass += 1
    print(f"SUMMARY {n_pass} PASS, {n_rows_only} rows-only, {n_fail} FAIL, "
          f"{warned.count} schema warnings, {runs.count} executions")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
