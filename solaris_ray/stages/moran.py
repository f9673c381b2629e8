"""Moran's I spatial autocorrelation over a cell lattice (queen
contiguity), in exact integer arithmetic.

The classic hot-spot diagnostic for gridded rasters/point densities:
``I = (n / W) * sum_ij w_ij (x_i - xbar)(x_j - xbar) / sum_i (x_i - xbar)^2``
with ``w_ij = 1`` for 8-neighbour (queen) adjacent OCCUPIED cells.

Expanding the double sum removes the mean from the pair pass:

  sum_ij w_ij (x_i - xbar)(x_j - xbar) = S1 - xbar * S2 + xbar^2 * W
  S1 = sum_ij w_ij x_i x_j     S2 = sum_ij w_ij (x_i + x_j)

so the whole statistic reduces to SIX integer sufficient statistics
(n, W, S1, S2, sum x, sum x^2), and

  I = A / (W * B),  A = S1*n^2 - S2*sx*n + W*sx^2,  B = n*sx2 - sx^2

— all integers.  The gate emits those six (hash-exact by
construction) plus ``moran_e6`` = trunc(1e6 * A / (W * B)) computed
in arbitrary-precision Python ints with DuckDB's ``//`` (truncate
toward zero) semantics, so the float statistic is also hash-exact.

Scale plan: ONE keyed sum (``distinct_reduce``) builds per-cell
values; the pair pass replicates each occupied cell's (value) row to
its 8 neighbour keys (9x a 24-byte row) and co-shuffles once on the
cell key — every ordered neighbour pair meets exactly once in the
owner's bucket, partial (S1, S2, W) rows are per-bucket scalars, and
the final combine touches O(buckets) rows.  No all-pairs path;
lattice skew is bounded by 8 neighbours.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, distinct_reduce

_STRIDE = np.int64(1) << np.int64(21)
_OFF = np.int64(1) << np.int64(20)
# the 3x3 queen window around a cell key, self (offset 0) included
_WINDOW = np.array([-_STRIDE - 1, -_STRIDE, -_STRIDE + 1, -1, 0, 1,
                    _STRIDE - 1, _STRIDE, _STRIDE + 1], np.int64)


def _cell_counts(points, cell: float, x_col: str, y_col: str):
    """-> materialized (ck, v): the point count v of every occupied
    cell, keyed by its grid key ck."""
    if cell <= 0:
        raise ValueError("cell must be > 0")

    def _cells(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        cx = np.floor(x / cell).astype(np.int64) + _OFF
        cy = np.floor(y / cell).astype(np.int64) + _OFF
        uniq, counts = np.unique(cx * _STRIDE + cy, return_counts=True)
        return pa.table({"ck": pa.array(uniq, pa.int64()),
                         "v": pa.array(counts.astype(np.int64), pa.int64())})

    return distinct_reduce(points.map_batches(_cells, batch_format="pyarrow"),
                           ["ck"], {"v": "sum"}).materialize()


def _replicate(batch: pa.Table) -> pa.Table:
    """Each cell row to the 9 keys of its window: own = 1 on its own key."""
    k = batch["ck"].to_numpy(zero_copy_only=False)
    v = batch["v"].to_numpy(zero_copy_only=False)
    return pa.table({
        "ck": pa.array((k[:, None] + _WINDOW[None, :]).ravel(), pa.int64()),
        "own": pa.array(np.tile((_WINDOW == 0).astype(np.int8), k.size), pa.int8()),
        "v": pa.array(np.repeat(v, 9), pa.int64()),
    })


def _moments(cells) -> tuple[int, int, int]:
    """(n, sum x, sum x^2) over the cell values."""
    def _part(b: pa.Table) -> pa.Table:
        v = b["v"].to_numpy(zero_copy_only=False)
        return pa.table({"n": [b.num_rows], "sx": [int(v.sum())],
                         "sx2": [int((v * v).sum())]})

    sums = cells.map_batches(_part, batch_format="pyarrow").sum(["n", "sx", "sx2"]) or {}
    return tuple(int(sums.get(f"sum({c})") or 0) for c in ("n", "sx", "sx2"))


def moran_i(
    points,
    cell: float,
    x_col: str = "x",
    y_col: str = "y",
):
    """-> one row (n_cells, w_pairs, s1, s2, sum_x, sum_x2, moran_e6)
    for queen-contiguity Moran's I of per-cell point counts."""
    cells = _cell_counts(points, cell, x_col, y_col)

    part_schema = pa.schema(
        [("w", pa.int64()), ("s1", pa.int64()), ("s2", pa.int64())]
    )

    def _pairs(group: pa.Table) -> pa.Table:
        k = group["ck"].to_numpy(zero_copy_only=False)
        own = group["own"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, own, v = k[order], own[order], v[order]
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        ends = np.append(starts[1:], k.size)
        # per-segment: one owner (occupied cell) + its ghost neighbours
        seg_id = np.repeat(np.arange(starts.size), ends - starts)
        is_own = own == 1
        has_owner = np.zeros(starts.size, bool)
        owner_val = np.zeros(starts.size, np.int64)
        has_owner[seg_id[is_own]] = True
        owner_val[seg_id[is_own]] = v[is_own]
        ghost = ~is_own & has_owner[seg_id]
        gseg = seg_id[ghost]
        gval = v[ghost]
        w = int(gval.size)
        s1 = int(np.sum(owner_val[gseg] * gval))
        s2 = int(np.sum(owner_val[gseg] + gval))
        return pa.table(
            {
                "w": pa.array([w], pa.int64()),
                "s1": pa.array([s1], pa.int64()),
                "s2": pa.array([s2], pa.int64()),
            }
        ) if w else part_schema.empty_table()

    pair_parts = co_shuffle(cells.map_batches(_replicate, batch_format="pyarrow"),
                            "ck", _pairs)
    sums = pair_parts.sum(["w", "s1", "s2"]) or {}
    w_pairs = int(sums.get("sum(w)") or 0)
    s1 = int(sums.get("sum(s1)") or 0)
    s2 = int(sums.get("sum(s2)") or 0)
    n, sx, sx2 = _moments(cells)

    # exact integer assembly; trunc-toward-zero division = DuckDB `//`
    a_num = s1 * n * n - s2 * sx * n + w_pairs * sx * sx
    b_den = n * sx2 - sx * sx
    if w_pairs and b_den:
        scaled = 10**6 * a_num
        div = w_pairs * b_den
        moran_e6 = (1 if (scaled < 0) == (div < 0) else -1) * (
            abs(scaled) // abs(div)
        )
    else:
        moran_e6 = 0

    import ray

    return ray.data.from_arrow(
        pa.table(
            {
                "n_cells": pa.array([n], pa.int64()),
                "w_pairs": pa.array([w_pairs], pa.int64()),
                "s1": pa.array([s1], pa.int64()),
                "s2": pa.array([s2], pa.int64()),
                "sum_x": pa.array([sx], pa.int64()),
                "sum_x2": pa.array([sx2], pa.int64()),
                "moran_e6": pa.array([int(moran_e6)], pa.int64()),
            }
        )
    )


def getis_ord(
    points,
    cell: float,
    x_col: str = "x",
    y_col: str = "y",
):
    """Getis-Ord Gi* hot-spot score per occupied cell (queen window
    INCLUDING self):

      num_i = sum_{j in N(i) u {i}} x_j  -  xbar * k_i
      den_i = S * sqrt((n*k_i - k_i^2) / (n-1)),  S = sqrt(sx2/n - xbar^2)

    with k_i = occupied cells in the window.  Same one-replication
    co-shuffle as moran_i; per-cell (k, window sum) are integers, the
    global (n, sum x, sum x^2) broadcast as three scalars, and gi6 is
    the identical float expression on both engine and SQL sides
    (every op correctly rounded on exact-int inputs -> bit-identical),
    rounded to 6 dp.

    -> one row per occupied cell: (cx, cy, k, wsum, gi6), grid
    indexes relative to the ``cell`` edge.
    """
    cells = _cell_counts(points, cell, x_col, y_col)
    n, sx, sx2 = _moments(cells)

    out_schema = pa.schema(
        [("cx", pa.int64()), ("cy", pa.int64()), ("k", pa.int64()),
         ("wsum", pa.int64()), ("gi6", pa.float64())]
    )

    def _windows(group: pa.Table) -> pa.Table:
        key = group["ck"].to_numpy(zero_copy_only=False)
        own = group["own"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.argsort(key, kind="stable")
        key, own, v = key[order], own[order], v[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.append(starts[1:], key.size)
        seg = np.repeat(np.arange(starts.size), ends - starts)
        has_owner = np.zeros(starts.size, bool)
        has_owner[seg[own == 1]] = True
        kcnt = (ends - starts).astype(np.int64)  # occupied window cells
        wsum = np.add.reduceat(v, starts).astype(np.int64)
        sel = has_owner
        if not sel.any():
            return out_schema.empty_table()
        ck = key[starts][sel]
        kk = kcnt[sel]
        ws = wsum[sel]
        xbar = sx / n
        s_dev = np.sqrt(sx2 / n - xbar * xbar)
        num = ws - xbar * kk
        with np.errstate(divide="ignore", invalid="ignore"):
            den = s_dev * np.sqrt((n * kk - kk * kk) / (n - 1)) if n > 1 else (
                np.zeros(kk.size)
            )
            gi = np.where(den > 0, num / den, 0.0)
        cx = (ck // _STRIDE) - _OFF
        cy = (ck % _STRIDE) - _OFF
        return pa.table(
            {
                "cx": pa.array(cx, pa.int64()),
                "cy": pa.array(cy, pa.int64()),
                "k": pa.array(kk, pa.int64()),
                "wsum": pa.array(ws, pa.int64()),
                "gi6": pa.array(np.round(gi, 6), pa.float64()),
            }
        )

    return co_shuffle(cells.map_batches(_replicate, batch_format="pyarrow"),
                      "ck", _windows)
