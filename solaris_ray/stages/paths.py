"""Top-k clickstream session paths.

Funnel-adjacent engagement mining: sessionize each user's events
(gap rule identical to stages/windows.sessionize and its SQL twin),
render each session's ordered event types as a ``'->'``-joined path
string, count sessions per distinct path, return the global top-k.

ONE wide ``_buckets.co_shuffle`` moves raw (user, ts, id, type) rows
to the user's bucket; paths are built vectorized (Arrow list offsets +
``binary_join`` — no per-session Python), pre-counted per bucket so
the path-count shuffle moves at most |buckets| x |distinct paths|
rows, then a tiny sort/limit.  Total order everywhere: events by
(ts, event_id), final by (n desc, path asc).

Partitioning assumption: one user's events meet in one group
(bucket key = user id) — the same contract as sessionize/funnel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, key_i64


def session_paths(
    events,
    gap_us: int,
    top_k: int = 20,
    user_col: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    id_col: str = "event_id",
):
    """-> (path, n_sessions): top-k most common session type-paths."""
    if gap_us <= 0:
        raise ValueError("gap_us must be > 0")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")

    def _project(batch: pa.Table) -> pa.Table:
        u = key_i64(batch, user_col)
        t = (
            batch[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "t": pa.array(t, pa.int64()),
                "i": pa.array(
                    batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
                "ty": batch[type_col],
            }
        )

    out_schema = pa.schema([("path", pa.string()), ("n", pa.int64())])

    def _paths(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        t = group["t"].to_numpy(zero_copy_only=False)
        i = group["i"].to_numpy(zero_copy_only=False)
        if u.size == 0:
            return out_schema.empty_table()
        order = np.lexsort((i, t, u))
        u, t, i = u[order], t[order], i[order]
        ty = pc.take(
            group["ty"].combine_chunks(), pa.array(order, pa.int64())
        )
        brk = np.ones(u.size, bool)
        brk[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) > gap_us)
        starts = np.flatnonzero(brk)
        offsets = np.append(starts, u.size).astype(np.int32)
        lst = pa.ListArray.from_arrays(pa.array(offsets), ty)
        paths = pc.binary_join(lst, "->")
        uniq, counts = np.unique(
            paths.to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "path": pa.array(uniq, pa.string()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    counted = (
        co_shuffle(events.map_batches(_project, batch_format="pyarrow"), "u", _paths)
        .groupby("path")
        .sum("n")
        .map_batches(
            lambda b: pa.table(
                {"path": b["path"], "n_sessions": pc.cast(b["sum(n)"], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )
    return counted.sort(["n_sessions", "path"], descending=[True, False]).limit(
        top_k
    )
