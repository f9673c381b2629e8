"""Event-transition matrix — consecutive-pair counts per entity.

Session-quality curation and agent-trace analysis want the first-order
Markov view of an event log: for each user order events by time and
count every consecutive (from_type, to_type) pair.  SQL spells the
pair emission ``LEAD(event_type) OVER (PARTITION BY user ORDER BY ts,
event_id)`` — the id tie-break makes the order total, so engine and
twin agree even on equal timestamps.

ONE ``_buckets.co_shuffle`` of the event rows on the user: a
lexsort-segment kernel orders every user's events at once and emits
pair rows where adjacent rows share the user; a second (tiny —
|types|^2 rows per bucket after pre-count) co-shuffle on the from-type
sums the counts.
Event types travel as strings only in the tiny second shuffle; the
wide shuffle carries (user:int64, ts:int64, event_id:int64, type).

Partitioning assumption (SURVEY custom-operator rule): one user's
events meet in one bucket (the shuffle key is the user id).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64


def transition_matrix(
    events,
    user_col: str = "user_id",
    type_col: str = "event_type",
    ts_col: str = "ts",
    id_col: str = "event_id",
):
    """-> (from_type, to_type, n): counts of consecutive event-type
    pairs per user, ordered by (ts, event_id) within each user."""
    out_schema = pa.schema(
        [("from_type", pa.string()), ("to_type", pa.string()),
         ("n", pa.int64())]
    )

    def _project(batch: pa.Table) -> pa.Table:
        u = key_i64(batch, user_col)
        ts = (
            batch[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
        )
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "ts": pa.array(ts, pa.int64()),
                "eid": batch[id_col],
                "ty": batch[type_col],
            }
        )

    def _pairs(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        ts = group["ts"].to_numpy(zero_copy_only=False)
        eid = group["eid"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u_s = u[order]
        adj = u_s[1:] == u_s[:-1]  # consecutive rows of the same user
        ty = group["ty"].take(pa.array(order))
        frm = ty.slice(0, max(len(order) - 1, 0)).filter(pa.array(adj))
        nxt = ty.slice(1).filter(pa.array(adj))
        # pre-count inside the bucket so the global shuffle is |types|^2
        t = pa.table({"from_type": frm, "to_type": nxt})
        import pyarrow.compute as pc

        g = t.group_by(["from_type", "to_type"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "from_type": g["from_type"],
                "to_type": g["to_type"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    def _combine(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = group.group_by(["from_type", "to_type"]).aggregate([("n", "sum")])
        return pa.table(
            {
                "from_type": g["from_type"],
                "to_type": g["to_type"],
                "n": pc.cast(g["n_sum"], pa.int64()),
            }
        )

    pairs = co_shuffle(events.map_batches(_project, batch_format="pyarrow"), "u", _pairs)
    out = co_shuffle(pairs, "from_type", _combine)

    def _pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names)

    return out.map_batches(_pin, batch_format="pyarrow")
