"""Exact per-series rolling-window order statistics.

The reference has no time-series surface; this is the training-data
analytics op (per-entity smoothing / robust denoising) expressed the
Ray-Data way: one ``_buckets.co_shuffle`` on the entity, then a fully
vectorized per-bucket kernel — no per-row Python, no per-entity group
dispatch (entities share a bucket; series boundaries are handled by
masking, not iteration).

Medians are emitted as ``med2 = lo_mid + hi_mid`` (twice the median):
the sum of the two middle order statistics is always an exact int64,
so the gate hash never touches float rounding.

The (n, k) shifted-copy window matrix bounds memory at k * block_rows
int64s — k is a small constant (the window), so a 100-TB run streams
block-by-block with O(k) overhead per row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, key_i64

_SENTINEL = np.iinfo(np.int64).max


def rolling_median2(events, k: int = 5, entity_col: str = "user_id",
                    ts_col: str = "ts", id_col: str = "event_id",
                    value_col: str = "value", scale: int = 100):
    """Per entity (ordered by ts, then id): twice the exact median of
    the last ``k`` values (shorter leading windows use what exists).

    Output: id, entity, ts_us, n_win (rows in the window), med2 int64.
    """
    if k < 1:
        raise ValueError("window k must be >= 1")

    def _project(batch: pa.Table) -> pa.Table:
        vals = np.round(
            batch[value_col].to_numpy(zero_copy_only=False) * float(scale)
        ).astype(np.int64)
        return pa.table(
            {
                "ent__": pa.array(key_i64(batch, entity_col), pa.int64()),
                "ts__": pc.cast(batch[ts_col], pa.int64()),
                "id__": pc.cast(batch[id_col], pa.int64()),
                "v__": pa.array(vals, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [(id_col, pa.int64()), (entity_col, pa.int64()),
         ("ts_us", pa.int64()), ("n_win", pa.int64()), ("med2", pa.int64())]
    )

    def _roll(group: pa.Table) -> pa.Table:
        ent = group["ent__"].to_numpy(zero_copy_only=False)
        ts = group["ts__"].to_numpy(zero_copy_only=False)
        ids = group["id__"].to_numpy(zero_copy_only=False)
        v = group["v__"].to_numpy(zero_copy_only=False)
        n = ent.size
        if n == 0:
            return out_schema.empty_table()
        order = np.lexsort((ids, ts, ent))
        ent, ts, ids, v = ent[order], ts[order], ids[order], v[order]
        # local index within each series (0-based)
        new = np.r_[True, ent[1:] != ent[:-1]]
        starts = np.flatnonzero(new)
        j = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
        # (n, k) window matrix: column o holds v[i-o]; rows where the
        # series has fewer than o+1 rows get the +inf sentinel so they
        # sort past every real value
        m = np.full((n, k), _SENTINEL, np.int64)
        for o in range(k):
            valid = j >= o
            m[valid, o] = v[np.flatnonzero(valid) - o]
        m.sort(axis=1)
        w = np.minimum(j + 1, k)
        rows = np.arange(n)
        med2 = m[rows, (w - 1) // 2] + m[rows, w // 2]
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                entity_col: pa.array(ent, pa.int64()),
                "ts_us": pa.array(ts, pa.int64()),
                "n_win": pa.array(w.astype(np.int64), pa.int64()),
                "med2": pa.array(med2, pa.int64()),
            }
        )

    keyed = events.map_batches(_project, batch_format="pyarrow", batch_size=16384)
    return co_shuffle(keyed, "ent__", _roll)
