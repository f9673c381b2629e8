"""Gaps-and-islands: merge overlapping [start, end] intervals per key.

Interval algebra the repo's gap-based ``sessionize`` cannot express:
each row carries its OWN duration (playback spans, GPS track segments,
lease windows), and overlapping-or-touching intervals coalesce into
islands.  Per key the output is the island count, total covered
length (union measure), and longest island — the curation shape of
"how much wall-clock does this user/sensor actually cover?".

Algorithm (all int64, exact): one ``_buckets.co_shuffle`` on the key;
per bucket a lexsort by (key, start, end, id) and a SEGMENTED running
max of ``end`` — vectorized with the per-segment base-offset trick
(add seg_id·BIG before ``np.maximum.accumulate``, subtract after; BIG
is sized from the value range and guarded against int64 overflow).  A
row opens a new island iff its start exceeds the running max of all
earlier ends in its key.  Island extents then reduce with ``reduceat``
— no per-key Python dispatch.  Touching intervals (start == prior
end) MERGE (closed-interval semantics, the SQL twin uses ``>``).

Assumes each key's rows fit a task (the rank-family partitioning
assumption, documented in `stages/ntile.py`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_OUT = pa.schema(
    [
        ("key", pa.int64()),
        ("n_islands", pa.int64()),
        ("covered", pa.int64()),
        ("max_island", pa.int64()),
    ]
)


def merge_intervals(
    ds,
    key_col: str = "key",
    start_col: str = "s",
    end_col: str = "e",
):
    """Dataset of (key, s, e) int64 intervals (s <= e) ->
    (key, n_islands, covered, max_island) per key."""

    def _project(batch: pa.Table) -> pa.Table:
        k = key_i64(batch, key_col)
        s = batch[start_col].to_numpy(zero_copy_only=False).astype(np.int64)
        e = batch[end_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if s.size and (e < s).any():
            raise ValueError("merge_intervals: end < start")
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "s": pa.array(s, pa.int64()),
                "e": pa.array(e, pa.int64()),
            }
        )

    def _islands(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        s = group["s"].to_numpy(zero_copy_only=False)
        e = group["e"].to_numpy(zero_copy_only=False)
        order = np.lexsort((e, s, k))
        k, s, e = k[order], s[order], e[order]
        new_key = np.ones(k.size, bool)
        new_key[1:] = k[1:] != k[:-1]
        seg = np.cumsum(new_key) - 1
        # segmented running max of e: per-segment base offset so the
        # global accumulate never carries across segments
        lo, hi = int(e.min()), int(e.max())
        span = hi - lo + 1
        nseg = int(seg[-1]) + 1
        if span * (nseg + 1) > np.iinfo(np.int64).max // 2:
            raise OverflowError(
                "merge_intervals: value range x key count exceeds the "
                "segmented-cummax offset budget"
            )
        base = seg * np.int64(span)
        run = np.maximum.accumulate(e - lo + base) - base + lo
        prev_run = np.empty_like(run)
        prev_run[0] = np.iinfo(np.int64).min
        prev_run[1:] = run[:-1]
        new_island = new_key | (s > prev_run)
        isl_start = np.flatnonzero(new_island)
        isl_seg = np.cumsum(new_island) - 1
        # island extent: min start = start at island head (sorted);
        # max end = segmented running max at the island's last row
        isl_end_row = np.append(isl_start[1:], k.size) - 1
        lengths = run[isl_end_row] - s[isl_start]
        key_of_isl = k[isl_start]
        key_new = np.ones(key_of_isl.size, bool)
        key_new[1:] = key_of_isl[1:] != key_of_isl[:-1]
        kstarts = np.flatnonzero(key_new)
        n_isl = np.diff(np.append(kstarts, key_of_isl.size))
        covered = np.add.reduceat(lengths, kstarts)
        longest = np.maximum.reduceat(lengths, kstarts)
        return pa.table(
            {
                "key": pa.array(key_of_isl[kstarts], pa.int64()),
                "n_islands": pa.array(n_isl, pa.int64()),
                "covered": pa.array(covered, pa.int64()),
                "max_island": pa.array(longest, pa.int64()),
            }
        )

    out = co_shuffle(ds.map_batches(_project, batch_format="pyarrow"), "k", _islands)

    def _pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _OUT.empty_table()
        return batch.select(_OUT.names)

    return out.map_batches(_pin, batch_format="pyarrow")
