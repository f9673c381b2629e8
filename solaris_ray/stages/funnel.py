"""Distributed funnel analysis — ordered step matching per entity.

Event-log curation (user-journey conversion, crawl session quality,
agent-trace milestone tracking) needs the classic funnel: for an
ordered step list [s1, s2, ..., sk], each user matches s1 at its
EARLIEST occurrence, then s2 at the earliest occurrence STRICTLY
after the matched s1, and so on (first-touch semantics, unbounded
window, strict timestamp ordering so equal-timestamp events never
chain).  The reference has no sequential-pattern operator.

ONE ``_buckets.co_shuffle`` of id-only int64 rows: the projection
maps step names to small ints (non-step events collapse to per-batch
DISTINCT user marker rows so depth-0 users survive without shipping
their full event history), then the shuffle on the user matches all
steps inside a vectorized bucket kernel — per step one scatter-min
(``np.minimum.at``) over that step's rows, gated by the user's
previous matched time; a user that misses a step is fenced with
int64-max so later steps cannot match.  Work is O(rows * k) with no
per-user Python dispatch.

Partitioning assumption (SURVEY custom-operator rule): all events of
one user meet in one group — the bucket key is the user id; timestamps
are int64 microseconds (pre-converted, so the shuffle never carries
timestamp logical types).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, key_i64

_I64MAX = np.iinfo(np.int64).max
_I64MIN = np.iinfo(np.int64).min


def funnel(
    events,
    steps: list[str],
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
):
    """-> one row per user seen in ``events``:
    (user_id, depth, t1_us..tk_us) where depth is the number of funnel
    steps matched in order and t{i}_us is the matched event time in
    epoch microseconds (-1 where the funnel broke before step i)."""
    if not steps:
        raise ValueError("steps must be non-empty")
    k = len(steps)
    step_of = {s: i for i, s in enumerate(steps)}
    if len(step_of) != k:
        raise ValueError("steps must be distinct")

    out_fields = [("user_id", pa.int64()), ("depth", pa.int64())]
    out_fields += [(f"t{i + 1}_us", pa.int64()) for i in range(k)]
    out_schema = pa.schema(out_fields)

    def _project(batch: pa.Table) -> pa.Table:
        u = key_i64(batch, user_col)
        ts = (
            batch[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        st = (
            pc.fill_null(
                pc.index_in(batch[type_col], value_set=pa.array(steps)), -1
            )
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        hit = st >= 0
        uu = np.unique(u)  # per-batch distinct marker rows: depth-0 users
        ou = np.concatenate([u[hit], uu])
        ost = np.concatenate([st[hit], np.full(uu.size, -1, np.int64)])
        ots = np.concatenate([ts[hit], np.zeros(uu.size, np.int64)])
        return pa.table(
            {
                "u": pa.array(ou, pa.int64()),
                "st": pa.array(ost, pa.int64()),
                "ts": pa.array(ots, pa.int64()),
            }
        )

    def _match(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        st = group["st"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False)
        uu, inv = np.unique(u, return_inverse=True)
        prev = np.full(uu.size, _I64MIN, np.int64)  # time fence per user
        depth = np.zeros(uu.size, np.int64)
        cols = []
        for s in range(k):
            sel = st == s
            cur = np.full(uu.size, _I64MAX, np.int64)
            if sel.any():
                isel, tsel = inv[sel], ts[sel]
                ok = tsel > prev[isel]
                np.minimum.at(cur, isel[ok], tsel[ok])
            matched = cur != _I64MAX
            depth += matched.astype(np.int64)
            cols.append(np.where(matched, cur, np.int64(-1)))
            prev = np.where(matched, cur, _I64MAX)  # fence broken users
        data = {"user_id": pa.array(uu, pa.int64()),
                "depth": pa.array(depth, pa.int64())}
        for i, c in enumerate(cols):
            data[f"t{i + 1}_us"] = pa.array(c, pa.int64())
        return pa.table(data)

    out = co_shuffle(events.map_batches(_project, batch_format="pyarrow"), "u", _match)

    def _pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names)

    return out.map_batches(_pin, batch_format="pyarrow")
