"""Scale-proof for the CC/dedup path (VERDICT r3 next-round #6).

Runs fuzzy_dedup and dissolve at the sf0.1 fixture scale (1x) and at
10x synthetic scale, each at two parallelism levels in FRESH processes
(the in-sandbox stand-in for N vs 4N nodes), and reports per-run:
wall seconds, the largest task's peak heap as ``ds.stats()`` reports
it, large-star/small-star round count, per-round edge rows (the O(log)
rounds / O(edges) shuffle-volume claim, measured).

An auto leg takes the engine's plan: one union-find task when the
canonical edge set fits one ``DataContext.target_max_block_size``
block, star rounds otherwise.  A star leg forces the rounds by setting
that block size (``--block-bytes``) to half the bytes of the auto leg's
canonical edge set (16 B an edge), so the edge set fills two blocks and
the rounds run at the CPU width.  The smaller blocks hold for the whole
leg, so a star leg also cuts its corpus finer than the auto leg does.

Usage:
  python scripts/scale_proof_cc.py                 # orchestrates all legs
  python scripts/scale_proof_cc.py --leg fuzzy --n 50000 --cpus 16  # one auto leg
  python scripts/scale_proof_cc.py --leg dissolve --n 150000 --cpus 4 \
      --block-bytes 11283008                       # one star leg

Corpora are synthesized deterministically (no external data):

- fuzzy: n docs; every doc k with k%5==0 and k>0 is a near-duplicate
  of doc k-1 (same shingles except the last word), and every k%17==0
  duplicates k-4 too — chains + occasional wider stars, so components
  have diameter > 1 and the star rounds do real work.
- dissolve: n axis-aligned rects with the q_dissolve formula over an
  area scaled with sqrt(n/1500)) so per-cell density stays constant —
  a 10x corpus models a 10x-larger AOI, not a 10x-denser one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def synth_docs(n: int):
    import numpy as np
    import pyarrow as pa
    import ray

    ds = ray.data.range(n, override_num_blocks=max(8, n // 2048))

    def _gen(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy()
        texts = []
        for k in ids.tolist():
            base = k - 1 if (k % 5 == 0 and k > 0) else k
            if k % 17 == 0 and k >= 4:
                base = k - 4
            rng = np.random.default_rng(base * 7919 + 13)
            words = [f"w{v}" for v in rng.integers(0, 5000, 40)]
            if base != k:
                words[-1] = f"w{k}"  # near-dup: one-word delta
            texts.append(" ".join(words))
        return pa.table(
            {
                "doc_id": pa.array(ids.astype("int64"), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    return ds.map_batches(_gen, batch_format="pyarrow")


def synth_rects(n: int):
    import numpy as np
    import pyarrow as pa
    import ray

    modw = int(3200 * (n / 15000.0) ** 0.5)  # constant density vs sf0.1
    ds = ray.data.range(n, override_num_blocks=max(8, n // 4096))

    def _gen(batch: pa.Table) -> pa.Table:
        c = batch["id"].to_numpy().astype(np.int64)
        cx = ((c * 97) % modw).astype(np.float64)
        cy = ((c * 71) % modw).astype(np.float64)
        hx = (10 + c % 40).astype(np.float64)
        hy = (10 + c % 23).astype(np.float64)
        return pa.table(
            {
                "fid": pa.array(c, pa.int64()),
                "x0": pa.array(cx - hx, pa.float64()),
                "y0": pa.array(cy - hy, pa.float64()),
                "x1": pa.array(cx + hx, pa.float64()),
                "y1": pa.array(cy + hy, pa.float64()),
            }
        )

    return ds.map_batches(_gen, batch_format="pyarrow")


def run_leg(op: str, n: int, cpus: int, block_bytes: int | None = None) -> dict:
    import ray

    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    from layerbench.trace import parse_stats

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    if block_bytes:
        ctx.target_max_block_size = block_bytes
    from solaris_ray.runtime import tune_data_context

    tune_data_context()

    stats: dict = {}
    # warm the worker pool so the timed leg measures the engine
    ray.data.range(4 * cpus, override_num_blocks=2 * cpus).map_batches(
        lambda b: b, batch_format="pyarrow").materialize()

    t0 = time.time()
    if op == "fuzzy":
        from solaris_ray.stages.components import fuzzy_dedup

        out = fuzzy_dedup(synth_docs(n), cc_stats=stats).materialize()
        s = out.sum("keep")
        n_keep = int(s["sum(keep)"] if isinstance(s, dict) else s)
        n_rows = out.count()
    else:
        from solaris_ray.stages.dissolve import dissolve

        out = dissolve(synth_rects(n), cc_stats=stats).materialize()
        n_rows = out.count()
        n_keep = out.select_columns(["component"]).groupby("component").count().count()
    wall = round(time.time() - t0, 3)
    # the stats of a materialized dataset cover the executions it read
    peak = max((o["peak_heap_mb"] for o in parse_stats(out.stats())), default=0.0)
    res = {
        "op": op, "n": n, "cpus": cpus, "wall_s": wall, "peak_heap_mb": peak,
        "block_bytes": block_bytes, "cc_path": stats.get("path"),
        "rows": n_rows, "groups_or_keep": n_keep,
        "rounds": stats.get("rounds"),
        "edge_rows": stats.get("edge_rows"),
        "converged": stats.get("converged"),
    }
    ray.shutdown()
    return res


def _leg(op: str, n: int, cpus: int, block_bytes: int | None = None) -> dict:
    """One leg in a fresh process; prints and returns its result."""
    cmd = [sys.executable, __file__, "--leg", op, "--n", str(n), "--cpus", str(cpus)]
    if block_bytes:
        cmd += ["--block-bytes", str(block_bytes)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=3600)
    line = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        res = {"op": op, "n": n, "cpus": cpus, "block_bytes": block_bytes,
               "error": out.stderr[-500:]}
    print(json.dumps(res), flush=True)
    return res


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--leg", choices=["fuzzy", "dissolve"])
    ap.add_argument("--n", type=int)
    ap.add_argument("--cpus", type=int)
    ap.add_argument("--block-bytes", type=int,
                    help="target_max_block_size of the leg (a star leg)")
    ap.add_argument("--cpu-pair", default="4,16")
    args = ap.parse_args()

    if args.leg:
        print(json.dumps(run_leg(args.leg, args.n, args.cpus, args.block_bytes)))
        return

    lo, hi = (int(v) for v in args.cpu_pair.split(","))
    results = []
    for op, n1 in (("fuzzy", 5000), ("dissolve", 15000)):
        for n in (n1, 10 * n1):
            for cpus in (lo, hi):
                auto = _leg(op, n, cpus)
                results.append(auto)
                if auto.get("edge_rows"):
                    # half the canonical edge set's bytes: two blocks of edges
                    results.append(_leg(op, n, cpus, 8 * auto["edge_rows"][0]))
    print(json.dumps({"scale_proof": results}))


if __name__ == "__main__":
    main()
