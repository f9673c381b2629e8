"""Per-entity trajectory length (movement mining over event points).

GPS/track curation wants per-entity displacement statistics: total
path length over the entity's time-ordered positions.  ONE
``_buckets.co_shuffle`` on the entity id, an in-bucket lexsort by
(entity, ts, event id) — the same total order as sessionize/funnel —
and a vectorized consecutive-distance sum per segment.

Float discipline: per-entity sums of correctly-rounded sqrt terms,
6-dp round; ordering inside an entity is pinned, so engine and SQL
sum the same terms (cross-term order differences ~1e-12).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64


def trajectory_length(
    events,
    entity_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    x_col: str = "x",
    y_col: str = "y",
):
    """-> (entity, n_events, path6): total polyline length of each
    entity's time-ordered positions."""

    def _project(batch: pa.Table) -> pa.Table:
        u = key_i64(batch, entity_col)
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
                "x": pa.array(
                    batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64),
                    pa.float64(),
                ),
                "y": pa.array(
                    batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64),
                    pa.float64(),
                ),
            }
        )

    out_schema = pa.schema(
        [(entity_col, pa.int64()), ("n_events", pa.int64()),
         ("path6", pa.float64())]
    )

    def _paths(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        if u.size == 0:
            return out_schema.empty_table()
        t = group["t"].to_numpy(zero_copy_only=False)
        i = group["i"].to_numpy(zero_copy_only=False)
        x = group["x"].to_numpy(zero_copy_only=False)
        y = group["y"].to_numpy(zero_copy_only=False)
        order = np.lexsort((i, t, u))
        u, x, y = u[order], x[order], y[order]
        same = np.zeros(u.size, bool)
        same[1:] = u[1:] == u[:-1]
        dx = np.zeros(u.size)
        dy = np.zeros(u.size)
        dx[1:] = x[1:] - x[:-1]
        dy[1:] = y[1:] - y[:-1]
        step = np.where(same, np.sqrt(dx * dx + dy * dy), 0.0)
        starts = np.flatnonzero(~same)
        totals = np.add.reduceat(step, starts)
        counts = np.diff(np.r_[starts, u.size])
        return pa.table(
            {
                entity_col: pa.array(u[starts], pa.int64()),
                "n_events": pa.array(counts.astype(np.int64), pa.int64()),
                "path6": pa.array(np.round(totals, 6), pa.float64()),
            }
        )

    return co_shuffle(events.map_batches(_project, batch_format="pyarrow"), "u", _paths)
