"""Per-key exponential moving average in exact integer arithmetic.

The streaming-telemetry smoother: ``s_k = s_{k-1} + α·(x_k − s_{k-1})``
per key in event-time order.  With α = 1/2^shift and non-negative
integer inputs (cents), the recurrence is computed as
``s_k = ((2^shift − 1)·s_{k-1} + x_k) >> shift`` — pure integer, so a
recursive-CTE SQL twin replays it bit-for-bit (floor division on
non-negative operands is truncation on both sides).

Scale plan: one ``_buckets.co_shuffle`` on the key; inside each bucket
the recurrence is TIME-MAJOR vectorized — rows are lexsorted by
(key, t, id), re-ordered by position-in-sequence, and the state vector
for every key in the bucket advances one step per iteration, so the
Python loop runs max-sequence-length times (not rows times) with O(keys)
numpy work per step.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, key_i64


def ema_kernel(key: np.ndarray, t: np.ndarray, ids: np.ndarray,
               x: np.ndarray, shift: int):
    """-> (uniq_keys, n_per_key, final_state) — time-major recurrence."""
    order = np.lexsort((ids, t, key))
    k, tt, xx = key[order], t[order], x[order]
    uniq, seg = np.unique(k, return_inverse=True)
    starts = np.flatnonzero(np.concatenate(([True], seg[1:] != seg[:-1])))
    pos = np.arange(k.size) - starts[seg]
    by_pos = np.argsort(pos, kind="stable")
    pos_sorted = pos[by_pos]
    step_starts = np.flatnonzero(
        np.concatenate(([True], pos_sorted[1:] != pos_sorted[:-1])))
    step_ends = np.concatenate((step_starts[1:], [pos_sorted.size]))
    s = np.zeros(uniq.size, np.int64)
    mul = (1 << shift) - 1
    for ss, ee in zip(step_starts, step_ends):
        rows = by_pos[ss:ee]
        keys_k = seg[rows]
        if pos_sorted[ss] == 0:
            s[keys_k] = xx[rows]
        else:
            s[keys_k] = (mul * s[keys_k] + xx[rows]) >> shift
    n = np.bincount(seg, minlength=uniq.size).astype(np.int64)
    return uniq, n, s


def ema_final(ds, key_col: str, t_col: str, id_col: str, val_col: str,
              shift: int = 2):
    """-> (key, n, ema) — final EMA state per key, exact."""

    def _project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "key": pa.array(key_i64(batch, key_col), pa.int64()),
            "t": pc.cast(batch[t_col], pa.int64()),
            "id": pc.cast(batch[id_col], pa.int64()),
            "x": pc.cast(batch[val_col], pa.int64()),
        })

    def _per_bucket(group: pa.Table) -> pa.Table:
        uniq, n, s = ema_kernel(
            group["key"].to_numpy(), group["t"].to_numpy(),
            group["id"].to_numpy(), group["x"].to_numpy(), shift)
        return pa.table({
            "key": pa.array(uniq, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "ema": pa.array(s, pa.int64()),
        })

    keyed = ds.map_batches(_project, batch_format="pyarrow", batch_size=65536)
    return co_shuffle(keyed, "key", _per_bucket)
