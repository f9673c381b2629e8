"""Per-entity OLS trend slope in exact integer arithmetic.

Engagement analytics wants "is this user's spend trending up?":
ordinary-least-squares slope of value-vs-time per entity.  Slope is a
ratio of integer sufficient statistics —
``slope = (n*Stv - St*Sv) / (n*St2 - St*St)`` — so with days-rebased
time (t = epoch day - entity's min day, bounding t and t^2 far inside
int64) and cent-ized values the whole statistic is exact: emitted as
``slope_e6`` micro-units (cents/day) with DuckDB's truncating
division semantics, plus the raw (num, den) pair.

ONE ``_buckets.co_shuffle`` on the entity; in-bucket the rebase and all five
sums are lexsort-segment reductions (no per-row Python).  The final
micro-unit division runs per ENTITY row (output-sized, not
data-sized) in arbitrary-precision Python ints because
``1e6 * num`` can exceed int64.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_DAY_US = 86400 * 10**6


def trend_slope(
    events,
    entity_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
):
    """-> one row per entity: (entity, n_events, num, den, slope_e6)
    where slope_e6 = trunc(1e6 * num / den) cents per day (0 when the
    entity has a single distinct day)."""

    def _project(batch: pa.Table) -> pa.Table:
        u = key_i64(batch, entity_col)
        d = (
            batch[ts_col]
            .to_numpy(zero_copy_only=False)
            .astype("datetime64[us]")
            .astype(np.int64)
            // _DAY_US
        )
        v = np.round(
            batch[value_col].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "d": pa.array(d, pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [(entity_col, pa.int64()), ("n_events", pa.int64()),
         ("num", pa.int64()), ("den", pa.int64()),
         ("slope_e6", pa.int64())]
    )

    def _slopes(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        if u.size == 0:
            return out_schema.empty_table()
        d = group["d"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        u, d, v = u[order], d[order], v[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        n = np.diff(np.r_[starts, u.size]).astype(np.int64)
        # rebase per entity: t = d - min(d); d is sorted inside each
        # segment, so the segment head IS the min
        t = d - np.repeat(d[starts], n)
        st = np.add.reduceat(t, starts)
        sv = np.add.reduceat(v, starts)
        stv = np.add.reduceat(t * v, starts)
        st2 = np.add.reduceat(t * t, starts)
        num = n * stv - st * sv
        den = n * st2 - st * st  # >= 0 by Cauchy-Schwarz
        # micro-unit division in Python ints: 1e6 * num can pass int64
        slope = np.fromiter(
            (
                (1 if nm >= 0 else -1) * (abs(10**6 * int(nm)) // int(dn))
                if dn > 0 else 0
                for nm, dn in zip(num.tolist(), den.tolist())
            ),
            np.int64,
            count=num.size,
        )  # per ENTITY, not per row
        return pa.table(
            {
                entity_col: pa.array(u[starts], pa.int64()),
                "n_events": pa.array(n, pa.int64()),
                "num": pa.array(num, pa.int64()),
                "den": pa.array(den, pa.int64()),
                "slope_e6": pa.array(slope, pa.int64()),
            }
        )

    return co_shuffle(events.map_batches(_project, batch_format="pyarrow"), "u", _slopes)
