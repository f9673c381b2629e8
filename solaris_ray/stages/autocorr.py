"""Per-series lag-k autocorrelation — exact integer sufficient stats.

Serial dependence per sensor/user/source: high lag-1 autocorrelation
means a metric drifts rather than jitters — the diagnostic companion
to `stages/cusum.py` (drift alarms) and `stages/trend.py` (OLS slope,
whose integer-sufficient-statistics recipe this reuses).

Per key, ordered by (order_cols, id): adjacent-at-lag pairs
(x_t, x_{t+lag}) contribute n, Sx, Sy, Sxy, Sxx, Syy — all int64,
order-free to aggregate, exact for |x| up to ~2^31.  The Pearson r
over the paired samples is emitted in truncated micro-units computed
with the IDENTICAL float expression the SQL twin uses (the moran.py
recipe), so the gate stays hash-exact despite r being a float
diagnostic.  Degenerate series (fewer than lag+1 rows, or zero
variance on either margin) emit r6 = NULL.

ONE ``_buckets.co_shuffle`` on the key; pairing is a vectorized
in-segment shift (row t pairs with row t+lag iff both fall in the same
key segment).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_OUT = pa.schema(
    [
        ("key", pa.int64()),
        ("n", pa.int64()),
        ("sx", pa.int64()),
        ("sy", pa.int64()),
        ("sxy", pa.int64()),
        ("sxx", pa.int64()),
        ("syy", pa.int64()),
        ("r6", pa.int64()),
    ]
)


def lag_autocorr(
    ds,
    key_col: str,
    order_cols: list[str],
    val_col: str,
    lag: int = 1,
    id_col: str | None = None,
):
    """Dataset -> one row per key with lag-``lag`` pair sufficient
    statistics and truncated micro-unit Pearson r (NULL when
    undefined)."""
    if lag < 1:
        raise ValueError("lag_autocorr: lag must be >= 1")

    def _project(batch: pa.Table) -> pa.Table:
        k = key_i64(batch, key_col)
        cols = {
            "k": pa.array(k, pa.int64()),
            "v": pa.array(
                batch[val_col].to_numpy(zero_copy_only=False).astype(np.int64),
                pa.int64(),
            ),
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

    def _corr(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        tid = group["tid"].to_numpy(zero_copy_only=False)
        ords = [
            group[f"o{j}"].to_numpy(zero_copy_only=False)
            for j in range(n_order)
        ]
        order = np.lexsort(tuple([tid] + ords[::-1] + [k]))
        k, v = k[order], v[order]
        n = k.size
        if n == 0:
            return _OUT.empty_table()
        new_key = np.ones(n, bool)
        new_key[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new_key)
        counts = np.diff(np.append(starts, n))
        # pair row t with t+lag when both are in the same segment
        if n > lag:
            same = k[: n - lag] == k[lag:]
        else:
            same = np.zeros(0, bool)
        x = v[: n - lag][same]
        y = v[lag:][same]
        kk = k[: n - lag][same]
        pk_new = np.ones(kk.size, bool)
        pk_new[1:] = kk[1:] != kk[:-1]
        pstarts = np.flatnonzero(pk_new)
        keys_with_pairs = kk[pstarts]
        pn = np.diff(np.append(pstarts, kk.size)).astype(np.int64)
        sx = np.add.reduceat(x, pstarts) if kk.size else np.empty(0, np.int64)
        sy = np.add.reduceat(y, pstarts) if kk.size else np.empty(0, np.int64)
        sxy = (
            np.add.reduceat(x * y, pstarts) if kk.size else np.empty(0, np.int64)
        )
        sxx = (
            np.add.reduceat(x * x, pstarts) if kk.size else np.empty(0, np.int64)
        )
        syy = (
            np.add.reduceat(y * y, pstarts) if kk.size else np.empty(0, np.int64)
        )
        # keys with no pairs (short series) still emit a row: n = 0
        all_keys = k[starts]
        out_n = np.zeros(all_keys.size, np.int64)
        pos = np.searchsorted(all_keys, keys_with_pairs)
        out_n[pos] = pn
        z = np.zeros(all_keys.size, np.int64)
        osx, osy, osxy, osxx, osyy = z.copy(), z.copy(), z.copy(), z.copy(), z.copy()
        osx[pos], osy[pos], osxy[pos] = sx, sy, sxy
        osxx[pos], osyy[pos] = sxx, syy
        # Pearson r in micro-units: numerator/variances are computed
        # as EXACT int64 first (the SQL twin's n*sxy - sx*sy is integer
        # arithmetic; doing it in float here would round differently),
        # then one float division + sqrt — expression-identical twins
        cov_i = out_n * osxy - osx * osy
        vx_i = out_n * osxx - osx * osx
        vy_i = out_n * osyy - osy * osy
        with np.errstate(invalid="ignore", divide="ignore"):
            r = cov_i.astype(np.float64) / np.sqrt(
                vx_i.astype(np.float64) * vy_i.astype(np.float64)
            )
        ok = (out_n > 1) & (vx_i > 0) & (vy_i > 0)
        r6 = np.where(ok, np.trunc(np.where(ok, r, 0.0) * 1e6), 0).astype(
            np.int64
        )
        return pa.table(
            {
                "key": pa.array(all_keys, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
                "sx": pa.array(osx, pa.int64()),
                "sy": pa.array(osy, pa.int64()),
                "sxy": pa.array(osxy, pa.int64()),
                "sxx": pa.array(osxx, pa.int64()),
                "syy": pa.array(osyy, pa.int64()),
                "r6": pa.array(r6, pa.int64(), mask=~ok),
            }
        )

    return co_shuffle(ds.map_batches(_project, batch_format="pyarrow"), "k", _corr)
