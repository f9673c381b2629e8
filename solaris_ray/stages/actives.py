"""Rolling distinct actives (DAU/WAU-style) — trailing-window users.

Engagement curation wants, for every day, the number of DISTINCT
users active in the trailing ``window`` days (WAU at window=7).  The
naive SQL shape re-counts each day's distinct set; the scalable shape
notices a user contributes to day d iff d falls in the union of
intervals [active_day, active_day + window - 1] — so the count per day
is a plain sum of exactly-once (user, window_day) memberships.

ONE wide ``_buckets.co_shuffle``: the projection dedups (user, day)
per batch; the shuffle on the user then expands each user's distinct
days into window-day memberships, DEDUPS them per user (overlapping
trailing windows collapse — the in-kernel expansion is bounded by
``window * distinct_days``, id-only int64), and pre-counts per window
day, so the second co-shuffle (on the day) moves at most
|buckets| * |days| count rows.  Exactly-once global emission makes the
final sum a distinct count with no distinct-aggregation machinery.

Partitioning assumption (SURVEY custom-operator rule): one user's
rows meet in one bucket (the shuffle key is the user id); days are
epoch-day int64 (``epoch_us // 86400e6``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_DAY_US = 86400 * 10**6


def rolling_actives(
    events,
    window: int = 7,
    user_col: str = "user_id",
    ts_col: str = "ts",
):
    """-> (day, n_active): distinct users active within the trailing
    ``window`` days ending at ``day``, for every day where the count
    is non-zero."""
    if window < 1:
        raise ValueError("window must be >= 1")
    out_schema = pa.schema([("day", pa.int64()), ("n_active", pa.int64())])

    def _project(batch: pa.Table) -> pa.Table:
        u = key_i64(batch, user_col)
        d = (
            batch[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // _DAY_US
        )
        ud = np.unique(np.stack([u, d], axis=1), axis=0)
        return pa.table(
            {
                "u": pa.array(ud[:, 0], pa.int64()),
                "d": pa.array(ud[:, 1], pa.int64()),
            }
        )

    def _expand(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        # window-day memberships: (u, d + o) for o in [0, window)
        uu = np.repeat(u, window)
        wd = (d[:, None] + np.arange(window, dtype=np.int64)).ravel()
        pair = np.unique(np.stack([uu, wd], axis=1), axis=0)  # per-user dedup
        days, counts = np.unique(pair[:, 1], return_counts=True)  # pre-count
        return pa.table(
            {
                "day": pa.array(days, pa.int64()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    def _combine(group: pa.Table) -> pa.Table:
        d = group["day"].to_numpy(zero_copy_only=False)
        n = group["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        d, n = d[order], n[order]
        new = np.ones(d.size, bool)
        new[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(n, starts) if d.size else n
        return pa.table(
            {
                "day": pa.array(d[starts], pa.int64()),
                "n_active": pa.array(sums.astype(np.int64), pa.int64()),
            }
        )

    expanded = co_shuffle(events.map_batches(_project, batch_format="pyarrow"), "u", _expand)
    out = co_shuffle(expanded, "day", _combine)

    def _pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names)

    return out.map_batches(_pin, batch_format="pyarrow")
