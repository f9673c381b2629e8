"""Per-series forward fill (LOCF — last observation carried forward).

Sensor gaps, sparse purchase amounts, sessionized telemetry: most rows
of a series carry no reading, and downstream features want "the last
known value as of this row".  The reference fills raster nodata from
neighbours (`/root/reference/solaris/utils/raster.py` nodata paths);
this is the time-series twin.

Shape: ONE ``_buckets.co_shuffle`` on the series key; per bucket a lexsort
by (key, order..., id) and a SEGMENTED running max over observation
POSITIONS (the intervals.py base-offset trick — add seg*n before
``np.maximum.accumulate``, subtract after; unobserved rows carry -1,
and a cross-segment carry cancels to exactly -1, the "no fill yet"
sentinel).  ``filled`` is a gather through that index — no per-key
Python, no per-row loop, and values stay int64 end to end (validity
rides as its own column, never as NaN).  Rows before a key's first
observation stay NULL (SQL ``IGNORE NULLS`` semantics).

Partitioning assumption (the rank-family rule, `stages/ntile.py`):
one key's rows fit a task.  A single unbounded series needs the
windowed variant instead (sliding_window), same as every rank op here.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, key_i64


def forward_fill(
    ds,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    id_col: str,
):
    """Dataset -> (id, filled): per key, ordered by ``order_cols`` then
    id, each row's ``filled`` is the most recent non-null ``val_col``
    at or before it (int64; NULL before the first observation)."""
    out_schema = pa.schema([(id_col, pa.int64()), ("filled", pa.int64())])

    def _project(batch: pa.Table) -> pa.Table:
        k = key_i64(batch, key_col)
        va = batch[val_col]
        valid = pc.is_valid(va).to_numpy(zero_copy_only=False)
        v = (
            pc.fill_null(pc.cast(va, pa.int64()), 0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        cols = {
            "k": pa.array(k, pa.int64()),
            "id": pa.array(
                batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64(),
            ),
            "v": pa.array(v, pa.int64()),
            "ok": pa.array(valid.astype(np.int8), pa.int8()),
        }
        for j, oc in enumerate(order_cols):
            cols[f"o{j}"] = pa.array(
                batch[oc].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64(),
            )
        return pa.table(cols)

    n_order = len(order_cols)

    def _fill(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        i = group["id"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        ok = group["ok"].to_numpy(zero_copy_only=False).astype(bool)
        ords = [
            group[f"o{j}"].to_numpy(zero_copy_only=False)
            for j in range(n_order)
        ]
        order = np.lexsort(tuple([i] + ords[::-1] + [k]))
        k, i, v, ok = k[order], i[order], v[order], ok[order]
        n = k.size
        if n == 0:
            return out_schema.empty_table()
        new_key = np.ones(n, bool)
        new_key[1:] = k[1:] != k[:-1]
        seg = np.cumsum(new_key) - 1
        pos = np.where(ok, np.arange(n, dtype=np.int64), np.int64(-1))
        base = seg * np.int64(n)
        run = np.maximum.accumulate(pos + base) - base
        has = run >= 0
        filled = v[np.maximum(run, 0)]
        return pa.table(
            {
                id_col: pa.array(i, pa.int64()),
                "filled": pa.array(
                    np.where(has, filled, 0), pa.int64(), mask=~has
                ),
            }
        )

    return co_shuffle(ds.map_batches(_project, batch_format="pyarrow"), "k", _fill)
