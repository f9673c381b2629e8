"""Mann–Whitney U rank-sum test between two groups, exact.

The distribution-free two-sample location test — the curation
question "does group A score higher than group B?" without normality
assumptions.  Tie-aware: ranks are kept in 2× units so tie-averaged
ranks stay integers, making the U statistic exact int64; the normal
approximation z (with the standard tie correction) is the only float,
evaluated identically by the SQL twin on identical integer operands.

Scale plan: the whole sample compresses to its VALUE HISTOGRAM —
per-batch (value, count, count_group1) partials, one keyed sum
(``distinct_reduce``), and a driver-side finish over the O(distinct values)
table (the histogram/wasserstein precedent; value domains are
bounded, rows are not).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import distinct_reduce


def mann_whitney(ds, group_col: str, val_col: str, g1: str, g2: str) -> pa.Table:
    """-> one row (n1, n2, u2, t3t, z6): U for group ``g1`` in 2×
    units (exact), the tie mass Σ(t³−t), and the tie-corrected z."""

    def _partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False)
        keep = (g == g1) | (g == g2)
        v = batch[val_col].to_numpy().astype(np.int64)[keep]
        is1 = (g[keep] == g1).astype(np.int64)
        uniq, inv = np.unique(v, return_inverse=True)
        return pa.table({
            "v": pa.array(uniq, pa.int64()),
            "c": np.bincount(inv).astype(np.int64),
            "c1": np.bincount(inv, weights=is1).astype(np.int64),
        })

    hist = distinct_reduce(
        ds.map_batches(_partial, batch_format="pyarrow", batch_size=16384),
        ["v"], {"c": "sum", "c1": "sum"},
    ).to_pandas().sort_values("v")  # O(distinct values) rows — the compressed sample
    c = hist["c"].to_numpy().astype(np.int64)
    c1 = hist["c1"].to_numpy().astype(np.int64)
    sv = np.concatenate(([0], np.cumsum(c)[:-1]))
    r2_1 = int((c1 * (2 * sv + c + 1)).sum())
    n1 = int(c1.sum())
    n2 = int((c - c1).sum())
    n = n1 + n2
    u2 = r2_1 - n1 * (n1 + 1)
    t3t = int((c ** 3 - c).sum())
    var = n1 * n2 / 12.0 * ((n + 1) - t3t / (n * (n - 1.0)))
    z = (u2 - n1 * n2) / (2.0 * np.sqrt(var)) if var > 0 else 0.0
    return pa.table({
        "n1": pa.array([n1], pa.int64()),
        "n2": pa.array([n2], pa.int64()),
        "u2": pa.array([u2], pa.int64()),
        "t3t": pa.array([t3t], pa.int64()),
        "z6": pa.array([round(float(z), 6)], pa.float64()),
    })


def _rank2_table(hist_df):
    """(value, count) df sorted by value -> (values, 2×avg-rank)."""
    c = hist_df["c"].to_numpy().astype(np.int64)
    sv = np.concatenate(([0], np.cumsum(c)[:-1]))
    return hist_df["v"].to_numpy().astype(np.int64), 2 * sv + c + 1


def spearman(ds, x_col: str, y_col: str) -> pa.Table:
    """Exact Spearman rank correlation between two bounded-domain
    integer columns: per-value histograms (one keyed sum each) give tie-averaged ranks in 2× integer units; the broadcast
    rank tables attach ranks per batch and exact int64 moment
    partials reduce to one row.  The only floats are the final rho
    expression (arbitrary-precision numerator, one sqrt), 6-dp.

    -> one row (n, rho6).
    """
    import ray
    from ray.data.aggregate import Sum

    def _hist(col):
        def _partial(batch: pa.Table) -> pa.Table:
            v = batch[col].to_numpy().astype(np.int64)
            uniq, inv = np.unique(v, return_inverse=True)
            return pa.table({
                "v": pa.array(uniq, pa.int64()),
                "c": np.bincount(inv).astype(np.int64),
            })

        return distinct_reduce(
            ds.map_batches(_partial, batch_format="pyarrow", batch_size=16384),
            ["v"], {"c": "sum"},
        ).to_pandas().sort_values("v")  # O(domain) rows

    xv, xr2 = _rank2_table(_hist(x_col))
    yv, yr2 = _rank2_table(_hist(y_col))
    bundle = ray.put((xv, xr2, yv, yr2))

    def _moments(batch: pa.Table) -> pa.Table:
        xvv, xrr, yvv, yrr = ray.get(bundle)
        x = batch[x_col].to_numpy().astype(np.int64)
        y = batch[y_col].to_numpy().astype(np.int64)
        rx = xrr[np.searchsorted(xvv, x)]
        ry = yrr[np.searchsorted(yvv, y)]
        return pa.table({
            "g": pa.array([0], pa.int64()),
            "n": pa.array([x.size], pa.int64()),
            "sx": pa.array([int(rx.sum())], pa.int64()),
            "sy": pa.array([int(ry.sum())], pa.int64()),
            "sxx": pa.array([int((rx * rx).sum())], pa.int64()),
            "syy": pa.array([int((ry * ry).sum())], pa.int64()),
            "sxy": pa.array([int((rx * ry).sum())], pa.int64()),
        })

    m = (
        ds.map_batches(_moments, batch_format="pyarrow", batch_size=16384)
        .groupby("g")
        .aggregate(Sum("n"), Sum("sx"), Sum("sy"), Sum("sxx"),
                   Sum("syy"), Sum("sxy"))
        .to_pandas().iloc[0]
    )
    # arbitrary-precision numerator/denominator (n·Σxy overflows int64)
    n = int(m["sum(n)"])
    sx, sy = int(m["sum(sx)"]), int(m["sum(sy)"])
    sxx, syy, sxy = int(m["sum(sxx)"]), int(m["sum(syy)"]), int(m["sum(sxy)"])
    num = n * sxy - sx * sy
    dx = n * sxx - sx * sx
    dy = n * syy - sy * sy
    rho = num / np.sqrt(float(dx) * float(dy)) if dx > 0 and dy > 0 else 0.0
    return pa.table({
        "n": pa.array([n], pa.int64()),
        "rho6": pa.array([round(float(rho), 6)], pa.float64()),
    })
