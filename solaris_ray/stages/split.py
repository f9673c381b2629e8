"""Deterministic train/val/test splitting for training-data pipelines.

``hash_split`` buckets each row by a salted MD5 of its key column —
the split is a pure function of (key, salt), so it is stable across
runs, machines, partitionings and dataset growth (a new document never
moves an old one between splits).  Fully vectorizable per batch: no
shuffle, no state, no driver participation — the cheapest possible
operator at 100 TB.

Bucket = md5(salt || key) low 8 bytes little-endian, mod 100 — the
same md5-low-8-LE idiom the MinHash shingle hash uses
(solaris_ray/stages/dedup.py:94), so the DuckDB oracle recomputes it
with the established hex-digit SQL expansion.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import top_k


def _bucket_of(keys: list[str], salt: str) -> np.ndarray:
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5((salt + k).encode("utf-8")).digest()[:8], "little") % 100
            for k in keys
        ),
        dtype=np.int64,
        count=len(keys),
    )


def split_batch(
    batch: pa.Table,
    key_col: str = "doc_id",
    weights: dict[str, float] | None = None,
    salt: str = "",
) -> pa.Table:
    """Adds ``bucket`` (0..99) and ``split`` columns to the batch."""
    weights = weights or {"train": 0.9, "val": 0.05, "test": 0.05}
    names = list(weights)
    # cumulative integer thresholds over 100 buckets
    edges = np.cumsum([int(round(100 * weights[n])) for n in names])
    edges[-1] = 100
    keys = pc.cast(batch[key_col], pa.string()).to_pylist()
    b = _bucket_of(keys, salt)
    idx = np.searchsorted(edges, b, side="right")
    labels = np.asarray(names, dtype=object)[idx]
    return batch.append_column("bucket", pa.array(b, pa.int64())).append_column(
        "split", pa.array(labels.tolist(), pa.string())
    )


def hash_split(
    ds,
    key_col: str = "doc_id",
    weights: dict[str, float] | None = None,
    salt: str = "",
):
    return ds.map_batches(
        lambda t: split_batch(t, key_col, weights, salt),
        batch_format="pyarrow",
        batch_size=8192,
    )


def _hex_rank(keys: list[str], salt: str) -> np.ndarray:
    """Full md5 hexdigest of (salt || key) — the deterministic sampling
    rank.  Lowercase-hex strings order identically under numpy string
    sort and SQL ORDER BY (both plain byte order on [0-9a-f])."""
    return np.asarray(
        [hashlib.md5((salt + k).encode("utf-8")).hexdigest() for k in keys],
        dtype=object,
    )


def stratified_sample(
    ds,
    group_col: str,
    key_col: str = "doc_id",
    k: int = 20,
    salt: str = "",
):
    """Deterministic k-per-group sample (balanced sampling across
    sources/languages — the standard corpus-mixing operator).

    Rank = md5(salt || key): a pure function of the row, so the sample
    is stable across runs, partitionings, and corpus growth order.
    Two-stage top-k so the shuffle is bounded: each block forwards at
    most k rows per group it contains (vectorized block-local
    ranking), then one ``top_k`` on the group takes the global k — the
    same partial-then-merge shape as ann.brute_topk.  Group count is
    small (sources), so the merge is a tiny exchange.

    Output: (group_col, key_col, rank) with rank 1..k by hash order.
    """

    def _block_topk(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch[key_col], pa.string()).to_pylist()
        rk = _hex_rank(keys, salt)
        grp = batch[group_col].to_numpy(zero_copy_only=False)
        # sort by (group, rank-hash, key) then keep first k per group
        order = np.lexsort((np.asarray(keys, dtype=object), rk, grp))
        g_sorted = grp[order]
        # position within the group run
        starts = np.flatnonzero(
            np.concatenate(([True], g_sorted[1:] != g_sorted[:-1]))
        )
        pos = np.arange(len(order)) - np.repeat(starts, np.diff(np.concatenate((starts, [len(order)]))))
        keep = order[pos < k]
        idx = pa.array(keep)
        return pa.table(
            {
                group_col: batch[group_col].take(idx),
                key_col: batch[key_col].take(idx),
                "rk": pa.array(rk[keep].tolist(), pa.string()),
            }
        )

    # the output does not depend on the batch size (a partial cut under a
    # total order), but it coalesces small read blocks, so the merge sorts
    # one block, not one per read block: the gate took 5x as long at
    # num_cpus=1 with whole blocks
    partial = ds.map_batches(_block_topk, batch_format="pyarrow", batch_size=8192)
    out = top_k(partial, group_col, [("rk", "ascending"), (key_col, "ascending")], k)
    return out.map_batches(lambda b: b.select([group_col, key_col, "rank"]),
                           batch_format="pyarrow")


def mix_sources(
    ds,
    permille: dict[str, int],
    key_col: str = "doc_id",
    source_col: str = "source",
    salt: str = "",
):
    """Weighted source mixing: deterministic per-source downsampling to
    target proportions (the dataset-mixing step of corpus assembly —
    e.g. upweight curated sources, cap a crawl at x%).

    keep(row) iff md5(salt || key) low-8-LE % 1000 < permille[source].
    A pure streaming filter (rates ride in the closure; nothing
    shuffles), reproducible across reruns and block orders, and
    subset-stable: lowering a source's permille keeps a subset of the
    rows it kept before (the property that makes re-mixes diffable).
    Sources absent from ``permille`` are dropped (permille 0).
    """
    def _mix(batch: pa.Table) -> pa.Table:
        keys = pc.cast(batch[key_col], pa.string()).to_pylist()
        b = np.asarray(
            [
                int.from_bytes(
                    hashlib.md5((salt + k).encode("utf-8")).digest()[:8], "little"
                ) % 1000
                for k in keys
            ],
            dtype=np.int64,
        )
        src = batch[source_col].to_pylist()
        thr = np.asarray([permille.get(s, 0) for s in src], np.int64)
        keep = b < thr
        out = batch.filter(pa.array(keep))
        return out.append_column("bucket", pa.array(b[keep], pa.int64()))

    return ds.map_batches(_mix, batch_format="pyarrow", batch_size=8192)
