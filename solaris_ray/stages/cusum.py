"""Per-series CUSUM changepoint / drift detection — exact int64.

Upward-drift CUSUM (Page 1954): with deviations d_t = x_t - mu0 - k
(target mean mu0, slack k), the alarm statistic is

    S_t = max(0, S_{t-1} + d_t)

and an alarm fires when S_t > h.  The curation use: flagging sensors /
users / sources whose metric drifts off its calibrated level — the
streaming-quality twin of zscore/mad_outliers (which are pointwise,
not drift-aware).

Vectorization: the recursion has the classic prefix form
``S_t = cs_t - min(0, min_{j<=t} cs_j)`` with cs = cumsum(d) — so one
lexsort by (key, order, id), a SEGMENTED cumsum and a SEGMENTED
running min (both via the intervals.py base-offset trick) produce
every S_t with no per-row loop; per-key aggregates reduce with
``reduceat``.  ONE ``_buckets.co_shuffle`` on the key; everything
int64 with an explicit overflow budget check (|d| sums are bounded by
range * rows-per-key).

Output per key: (key, n_alarms, first_alarm, max_s) where
``first_alarm`` is the 0-based row index within the key's sorted
series, or -1 when S never exceeds h.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_OUT = pa.schema(
    [
        ("key", pa.int64()),
        ("n_alarms", pa.int64()),
        ("first_alarm", pa.int64()),
        ("max_s", pa.int64()),
    ]
)


def cusum_alarms(
    ds,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    mu0: int,
    slack: int,
    h: int,
    id_col: str | None = None,
):
    """Dataset -> (key, n_alarms, first_alarm, max_s) per key."""

    def _project(batch: pa.Table) -> pa.Table:
        k = key_i64(batch, key_col)
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {
            "k": pa.array(k, pa.int64()),
            "d": pa.array(v - np.int64(mu0) - np.int64(slack), pa.int64()),
        }
        for j, oc in enumerate(order_cols):
            cols[f"o{j}"] = pa.array(
                batch[oc].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64(),
            )
        cols["tid"] = (
            pa.array(
                batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64(),
            )
            if id_col is not None
            else pa.array(np.zeros(k.size, np.int64), pa.int64())
        )
        return pa.table(cols)

    n_order = len(order_cols)

    def _detect(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        tid = group["tid"].to_numpy(zero_copy_only=False)
        ords = [
            group[f"o{j}"].to_numpy(zero_copy_only=False)
            for j in range(n_order)
        ]
        order = np.lexsort(tuple([tid] + ords[::-1] + [k]))
        k, d = k[order], d[order]
        n = k.size
        if n == 0:
            return _OUT.empty_table()
        new_key = np.ones(n, bool)
        new_key[1:] = k[1:] != k[:-1]
        seg = np.cumsum(new_key) - 1
        starts = np.flatnonzero(new_key)
        # overflow budget: |cs| <= max|d| * longest series
        dmax = int(np.abs(d).max()) if n else 0
        counts = np.diff(np.append(starts, n))
        span = dmax * int(counts.max()) + 1
        nseg = starts.size
        if span * (nseg + 1) > np.iinfo(np.int64).max // 4:
            raise OverflowError(
                "cusum_alarms: value range x series length exceeds the "
                "segmented-scan offset budget — rescale the input"
            )
        # segmented cumsum: global cumsum minus the carry entering each
        # segment (gathered at segment starts — cumsums are not
        # monotone, so no accumulate trick can recover the carry)
        gcs = np.cumsum(d)
        carry = np.repeat(gcs[starts] - d[starts], counts)
        cs = gcs - carry
        # segmented running MIN: shift segment j by -j*SEP with
        # SEP > 2*span so every earlier segment's transformed values
        # are STRICTLY greater than the current segment's — the min
        # accumulate then never carries across a boundary
        sep = np.int64(2 * span + 1)
        tr = cs - seg * sep
        runmin = np.minimum.accumulate(tr) + seg * sep
        s = cs - np.minimum(runmin, 0)
        alarm = s > h
        idx_in_key = np.arange(n) - np.repeat(starts, counts)
        n_alarms = np.add.reduceat(alarm.astype(np.int64), starts)
        first = np.where(alarm, idx_in_key, np.int64(1) << 60)
        first_alarm = np.minimum.reduceat(first, starts)
        first_alarm = np.where(
            first_alarm >= (np.int64(1) << 60), -1, first_alarm
        )
        max_s = np.maximum.reduceat(s, starts)
        return pa.table(
            {
                "key": pa.array(k[starts], pa.int64()),
                "n_alarms": pa.array(n_alarms, pa.int64()),
                "first_alarm": pa.array(first_alarm, pa.int64()),
                "max_s": pa.array(max_s, pa.int64()),
            }
        )

    return co_shuffle(ds.map_batches(_project, batch_format="pyarrow"), "k", _detect)
