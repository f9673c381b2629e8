"""Per-group convex hull: the points on the hull BOUNDARY, exactly.

The reference's footprint world reasons about polygon extents
(`/root/reference/solaris/vector/polygon.py` clips/georegisters
footprints); the hull is the classic extent summary — per-tile object
spread, per-cluster coverage, outlier fences for geocoded corpora.

Definition (exact, degeneracy-complete): a point p of group G is ON
THE HULL iff p lies on the boundary of conv(G).  That includes hull
corners, points collinear on a hull edge, and duplicates of either;
a group whose points all share one coordinate is its own (degenerate)
hull, so every point qualifies.  This is deliberately the
SUPPORTING-EDGE characterization — p on hull <=> some directed pair
(a, b) of group points has every group point on the left-or-on side
of line a->b and p on segment [a, b] — because that form is exactly
expressible in SQL (the gate oracle) with O(n^2) pairs x O(n)
certificates, no floating point.

Kernel: integer monotone chain (Andrew 1979) per group for the
corners, then a vectorized on-segment test of all points against the
h hull edges (cross == 0 and bbox containment, all int64 — coords are
validated integer-valued, so there is no epsilon anywhere).  Groups
are hash-bucketed; one co-shuffle total; the per-bucket kernel loops
over GROUPS (the dbscan._local discipline), each group vectorized.

Partitioning assumption (SURVEY custom-operator rule): one group's
points fit a task (groups here are spatial cells or per-tile feature
sets — thousands of rows, not billions); a degenerate giant group is
the caller's skew knob, same as dbscan's max-cell guard.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle

_OUT = pa.schema([("group", pa.int64()), ("point_id", pa.int64())])


def _hull_corners(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices (into x/y) of convex-hull corners in CCW order via
    monotone chain on DISTINCT points; strict turns (collinear points
    are not corners).  x/y int64, len >= 1."""
    pts = np.stack([x, y], axis=1)
    uniq, uidx = np.unique(pts, axis=0, return_index=True)
    n = uniq.shape[0]
    if n == 1:
        return uidx[:1]
    # uniq is lex-sorted by (x, y) already
    def _chain(idx_order):
        out = []
        for i in idx_order:
            while len(out) >= 2:
                ax, ay = uniq[out[-2]]
                bx, by = uniq[out[-1]]
                cross = (bx - ax) * (uniq[i, 1] - ay) - (by - ay) * (
                    uniq[i, 0] - ax
                )
                if cross <= 0:  # right turn or collinear: drop b
                    out.pop()
                else:
                    break
            out.append(i)
        return out[:-1]  # endpoint repeats as the other chain's start

    lower = _chain(range(n))
    upper = _chain(range(n - 1, -1, -1))
    corners = np.asarray(lower + upper, dtype=np.int64)
    if corners.size == 0:  # all collinear: chain keeps only endpoints
        corners = np.asarray([0, n - 1], dtype=np.int64)
    return uidx[corners]


def _boundary_mask(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bool mask: point i lies on the boundary of conv(points)."""
    n = x.size
    if n == 0:
        return np.zeros(0, bool)
    ci = _hull_corners(x, y)
    h = ci.size
    if h == 1:
        # all points share one coordinate pair
        return np.ones(n, bool)
    ax, ay = x[ci], y[ci]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    if h == 2:
        bx, by = bx[:1], by[:1]
        ax, ay = ax[:1], ay[:1]
    # on-segment: cross == 0 and inside the edge bbox — ints, exact
    cross = (bx - ax)[:, None] * (y[None, :] - ay[:, None]) - (by - ay)[
        :, None
    ] * (x[None, :] - ax[:, None])
    inx = (x[None, :] >= np.minimum(ax, bx)[:, None]) & (
        x[None, :] <= np.maximum(ax, bx)[:, None]
    )
    iny = (y[None, :] >= np.minimum(ay, by)[:, None]) & (
        y[None, :] <= np.maximum(ay, by)[:, None]
    )
    return ((cross == 0) & inx & iny).any(axis=0)


def group_convex_hull(
    ds,
    group_col: str = "group",
    id_col: str = "point_id",
    x_col: str = "x",
    y_col: str = "y",
):
    """Dataset of (group, id, x, y) with integer-valued coords ->
    (group, point_id) rows for every point on its group's convex-hull
    boundary (corners, collinear edge points, and their duplicates)."""

    def _project(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        i = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[x_col].to_numpy(zero_copy_only=False)
        y = batch[y_col].to_numpy(zero_copy_only=False)
        for v, name in ((x, x_col), (y, y_col)):
            if v.dtype.kind == "f" and v.size and (v != np.floor(v)).any():
                raise ValueError(
                    f"group_convex_hull: {name} has non-integer values — "
                    "the exact integer kernel refuses to round"
                )
            if v.size and (np.abs(v) >= float(1 << 30)).any():
                raise ValueError(
                    f"group_convex_hull: |{name}| >= 2**30 would overflow "
                    "the int64 cross products — rescale first"
                )
        return pa.table(
            {
                "g": pa.array(g, pa.int64()),
                "i": pa.array(i, pa.int64()),
                "x": pa.array(x.astype(np.int64), pa.int64()),
                "y": pa.array(y.astype(np.int64), pa.int64()),
            }
        )

    def _hulls(group: pa.Table) -> pa.Table:
        g = group["g"].to_numpy(zero_copy_only=False)
        i = group["i"].to_numpy(zero_copy_only=False)
        x = group["x"].to_numpy(zero_copy_only=False)
        y = group["y"].to_numpy(zero_copy_only=False)
        order = np.argsort(g, kind="stable")
        g, i, x, y = g[order], i[order], x[order], y[order]
        starts = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
        ends = np.append(starts[1:], g.size)
        out_g, out_i = [], []
        for s, e in zip(starts, ends):  # loop over GROUPS, not rows
            mask = _boundary_mask(x[s:e], y[s:e])
            out_g.append(g[s:e][mask])
            out_i.append(i[s:e][mask])
        if not out_g:
            return _OUT.empty_table()
        return pa.table(
            {
                "group": pa.array(np.concatenate(out_g), pa.int64()),
                "point_id": pa.array(np.concatenate(out_i), pa.int64()),
            }
        )

    return co_shuffle(ds.map_batches(_project, batch_format="pyarrow"), "g", _hulls)
