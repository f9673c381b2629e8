"""Checkpoint / resume manifest — per-partition lineage and metrics.

The reference has NO checkpointing (a crash loses ``self.tile_paths``
and partial tile dirs are silently overwritten —
/root/reference/solaris/tile/raster_tile.py:188-209).  The north_rule
requires explicit resumability: "resumable from checkpoint with
per-partition lineage + metrics".

Design (SURVEY.md §4 checkpoint row):

- output layout   ``out/part={pid}/*.parquet`` — one directory per
  input partition, written atomically-enough (parquet then manifest).
- manifest layout ``out/_manifest/part-{pid}.json`` — ONE FILE PER
  PARTITION, written only after that partition's parquet landed.  A
  crashed run leaves no manifest entry for unfinished partitions, so
  resume = (planned partitions) minus (manifest files present);
  re-running a finished partition is skipped; a half-written partition
  directory is overwritten by its retry (deterministic output ⇒
  idempotent).
- each entry carries lineage (the input fragment ids) and metrics
  (rows, bytes, wall seconds, rows/s).

The driver loop processes pending partitions one streaming execution
each; each partition is internally parallel, so sizing partitions at
thousands of rows amortizes per-execution overhead.  On a multi-node
cluster the same manifest protocol works over shared storage because
completion files are single-writer (one partition = one task).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from collections.abc import Callable

MANIFEST_DIR = "_manifest"


class PartitionManifest:
    """File-per-partition completion journal under ``out_dir``."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.mdir = os.path.join(out_dir, MANIFEST_DIR)
        os.makedirs(self.mdir, exist_ok=True)

    def done(self) -> dict[int, dict]:
        out: dict[int, dict] = {}
        for name in os.listdir(self.mdir):
            if not (name.startswith("part-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(self.mdir, name)) as f:
                    entry = json.load(f)
                if entry.get("status") == "done":
                    out[int(entry["partition_id"])] = entry
            except (json.JSONDecodeError, KeyError, ValueError):
                continue  # torn write: treated as not-done, partition retries
        return out

    def mark_done(self, pid: int, lineage: dict, metrics: dict) -> None:
        entry = {
            "partition_id": pid,
            "status": "done",
            "lineage": lineage,
            "metrics": metrics,
            "ts": time.time(),
        }
        path = os.path.join(self.mdir, f"part-{pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(entry, f)
        os.replace(tmp, path)  # atomic on POSIX

    def pending(self, planned: list[int]) -> list[int]:
        finished = self.done()
        return [p for p in planned if p not in finished]


def run_partitioned(
    out_dir: str,
    partitions: list[int],
    make_dataset: Callable[[int], "object"],
    lineage_of: Callable[[int], dict] | None = None,
) -> dict:
    """Resumable partition loop: skip finished, process pending, journal.

    ``make_dataset(pid)`` returns the Ray Dataset for one partition;
    its result is written to ``out/part={pid}/``.  Returns run summary
    including per-partition metrics and what was skipped (resume
    evidence).
    """
    manifest = PartitionManifest(out_dir)
    pending = manifest.pending(partitions)
    skipped = [p for p in partitions if p not in pending]
    results = {}
    for pid in pending:
        t0 = time.time()
        ds = make_dataset(pid)
        part_dir = os.path.join(out_dir, f"part={pid}")
        # a crashed run may have left files here; write_parquet appends,
        # so a pending partition starts from an empty directory
        shutil.rmtree(part_dir, ignore_errors=True)
        os.makedirs(part_dir)
        ds.write_parquet(part_dir)
        rows = _count_parquet_rows(part_dir)
        wall = time.time() - t0
        metrics = {
            "rows": rows,
            "wall_s": round(wall, 3),
            "rows_per_s": round(rows / wall, 1) if wall > 0 else 0.0,
            "bytes": _dir_bytes(part_dir),
            # order-insensitive content checksum: resume verification
            # can prove a finished partition's data is intact (not just
            # that a manifest file exists)
            "checksum": content_checksum(part_dir),
        }
        manifest.mark_done(pid, (lineage_of or (lambda p: {"partition": p}))(pid), metrics)
        results[pid] = metrics
    return {
        "out_dir": out_dir,
        "processed": sorted(results),
        "skipped": sorted(skipped),
        "metrics": results,
    }


def content_checksum(part_dir: str) -> int:
    """Order-insensitive int63 checksum of a partition's parquet rows.

    Per row: md5 over the canonical "col=val|col=val" string (columns
    sorted by name), low 63 bits; partition checksum = sum mod 2^63.
    Row order and file layout inside the partition don't matter, so a
    retried partition that wrote the same rows in a different order
    verifies equal.
    """
    import hashlib

    import pyarrow.parquet as pq

    total = 0
    mod = 1 << 63
    for name in sorted(os.listdir(part_dir)):
        if not name.endswith(".parquet"):
            continue
        tbl = pq.read_table(os.path.join(part_dir, name))
        cols = sorted(tbl.column_names)
        arrays = [tbl[c].to_pylist() for c in cols]
        for row in zip(*arrays):
            s = "|".join(f"{c}={v!r}" for c, v in zip(cols, row))
            h = int.from_bytes(
                hashlib.md5(s.encode("utf-8")).digest()[:8], "little"
            ) & (mod - 1)
            total = (total + h) % mod
    return total


def verify_partitions(out_dir: str, pids: list[int] | None = None) -> dict[int, bool]:
    """Recompute each finished partition's checksum against its
    manifest entry — the resume-time integrity check (a partition with
    a manifest entry but damaged/missing data files reports False and
    should be re-run by deleting its manifest entry)."""
    manifest = PartitionManifest(out_dir)
    done = manifest.done()
    out: dict[int, bool] = {}
    for pid, entry in done.items():
        if pids is not None and pid not in pids:
            continue
        part_dir = os.path.join(out_dir, f"part={pid}")
        want = entry.get("metrics", {}).get("checksum")
        if want is None or not os.path.isdir(part_dir):
            out[pid] = False
            continue
        out[pid] = content_checksum(part_dir) == want
    return out


def _count_parquet_rows(d: str) -> int:
    import pyarrow.parquet as pq

    total = 0
    for name in os.listdir(d):
        if name.endswith(".parquet"):
            total += pq.ParquetFile(os.path.join(d, name)).metadata.num_rows
    return total


def _dir_bytes(d: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for f in os.listdir(d)
        if os.path.isfile(os.path.join(d, f))
    )
