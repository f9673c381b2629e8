"""Retention cohort matrix — distinct-user activity by cohort week.

Corpus/event curation wants the classic retention triangle: bucket
every user into the week of their FIRST event (their cohort), then for
each (cohort_week, week_offset) count the distinct users of that
cohort active ``offset`` weeks later.  Weeks are plain epoch-week
integers (``epoch_us // (7 * 86400 * 10^6)``) so both engine and SQL
twin use exact int64 arithmetic.

TWO ``_buckets.co_shuffle`` calls over id-only int64 rows:
  1. on the user — all of a user's (user, week) rows meet in one
     bucket; a lexsort-segment kernel computes the per-user first week
     and emits one (cohort, offset) row per DISTINCT (user, week)
     (per-batch dedup in the projection keeps the shuffle small:
     repeat events inside a batch collapse before moving);
  2. on the cohort — counts rows per (cohort, offset) —
     counting distinct users is exact because step 1 emits each
     (user, week) exactly once globally.

Partitioning assumption (SURVEY custom-operator rule): a user's rows
meet in one bucket (the shuffle key is the user id); user ids are
non-negative int64.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_WEEK_US = 7 * 86400 * 10**6


def retention_cohorts(
    events,
    user_col: str = "user_id",
    ts_col: str = "ts",
):
    """-> (cohort_week, week_offset, n_users): distinct users of each
    first-seen-week cohort active at each week offset (offset 0 row is
    the cohort size)."""
    out_schema = pa.schema(
        [("cohort_week", pa.int64()), ("week_offset", pa.int64()),
         ("n_users", pa.int64())]
    )

    def _project(batch: pa.Table) -> pa.Table:
        u = key_i64(batch, user_col)
        wk = (
            batch[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // _WEEK_US
        )
        uw = np.unique(np.stack([u, wk], axis=1), axis=0)  # per-batch dedup
        return pa.table(
            {
                "u": pa.array(uw[:, 0], pa.int64()),
                "wk": pa.array(uw[:, 1], pa.int64()),
            }
        )

    def _per_user(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        wk = group["wk"].to_numpy(zero_copy_only=False)
        order = np.lexsort((wk, u))
        u, wk = u[order], wk[order]
        keep = np.ones(u.size, bool)
        keep[1:] = (u[1:] != u[:-1]) | (wk[1:] != wk[:-1])  # global dedup
        u, wk = u[keep], wk[keep]
        new = np.ones(u.size, bool)
        new[1:] = u[1:] != u[:-1]
        seg = np.cumsum(new) - 1
        first = wk[np.flatnonzero(new)]  # per-user min week (wk ascends)
        cohort = first[seg]
        return pa.table(
            {
                "cohort": pa.array(cohort, pa.int64()),
                "woff": pa.array(wk - cohort, pa.int64()),
            }
        )

    def _count(group: pa.Table) -> pa.Table:
        c = group["cohort"].to_numpy(zero_copy_only=False)
        o = group["woff"].to_numpy(zero_copy_only=False)
        order = np.lexsort((o, c))
        c, o = c[order], o[order]
        new = np.ones(c.size, bool)
        new[1:] = (c[1:] != c[:-1]) | (o[1:] != o[:-1])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, c.size))
        return pa.table(
            {
                "cohort_week": pa.array(c[starts], pa.int64()),
                "week_offset": pa.array(o[starts], pa.int64()),
                "n_users": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    firsts = co_shuffle(events.map_batches(_project, batch_format="pyarrow"), "u", _per_user)
    out = co_shuffle(firsts, "cohort", _count)

    def _pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names)

    return out.map_batches(_pin, batch_format="pyarrow")
