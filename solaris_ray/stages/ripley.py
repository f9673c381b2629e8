"""Ripley's K pair counts — multi-radius point-pattern statistics.

Second-order complement to the Clark-Evans first-order index
(``pointstats.py``): for each radius r in ``radii``, the EXACT number
of unordered point pairs within distance r (integer squared-distance
compare, so the DuckDB twin hashes identically).  K(r) itself is
``area * 2 * n_pairs / n^2`` — left to the consumer so no float enters
the gate.

Distribution (the dbscan eps-grid idiom): the plane is cut into cells
of the LARGEST radius; every point lands in its home cell and ghosts
into the four half-plane neighbour cells (E, NE, N, NW), so each
cross-cell pair materializes in exactly one owner cell and home-home
pairs count the upper triangle only.  One cell-id co-shuffle; per-cell
work is one vectorized (m x (m+g)) distance block, guarded by
``max_cell_points`` (a degenerate lattice would make it quadratic —
raise, never silently truncate)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle

_HALF_OFFSETS = ((1, -1), (1, 0), (1, 1), (0, 1))
_CID = np.int64(1 << 20)


def ripley_pair_counts(points, radii: list[int], x_col: str = "x",
                       y_col: str = "y", max_cell_points: int = 8192):
    """points (x, y int64 >= 0) -> one row per radius:
    (r, n_pairs, n_points), exact."""
    radii = sorted(int(r) for r in radii)
    if not radii or radii[0] <= 0:
        raise ValueError("radii must be positive")
    cell = radii[-1]

    n_points = points.count()

    def _replicate(batch: pa.Table) -> pa.Table:
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if x.size and (x.min() < 0 or y.min() < 0):
            raise ValueError("ripley: coordinates must be >= 0")
        cx, cy = x // cell, y // cell
        cids = [cx * _CID + cy]
        xs, ys, kinds = [x], [y], [np.zeros(x.size, np.int8)]
        for dx, dy in _HALF_OFFSETS:
            # ghost into the owner cell that pairs (owner, owner+off)
            cids.append((cx - dx) * _CID + (cy - dy))
            xs.append(x)
            ys.append(y)
            kinds.append(np.ones(x.size, np.int8))
        cid = np.concatenate(cids)
        return pa.table(
            {
                "cid": pa.array(cid, pa.int64()),
                "px": pa.array(np.concatenate(xs), pa.int64()),
                "py": pa.array(np.concatenate(ys), pa.int64()),
                "kind": pa.array(np.concatenate(kinds)),
            }
        )

    cells = points.map_batches(_replicate, batch_format="pyarrow", batch_size=16384)

    r2s = np.array([r * r for r in radii], np.int64)
    part_schema = pa.schema([("r", pa.int64()), ("c", pa.int64())])

    def _cell_counts(group: pa.Table) -> pa.Table:
        cid = group["cid"].to_numpy(zero_copy_only=False)
        px = group["px"].to_numpy(zero_copy_only=False)
        py = group["py"].to_numpy(zero_copy_only=False)
        kind = group["kind"].to_numpy(zero_copy_only=False)
        if cid.size == 0:
            return part_schema.empty_table()
        o = np.lexsort((kind, cid))
        cid, px, py, kind = cid[o], px[o], py[o], kind[o]
        starts = np.flatnonzero(np.r_[True, cid[1:] != cid[:-1]])
        ends = np.r_[starts[1:], cid.size]
        counts = np.zeros(r2s.size, np.int64)
        for s, e in zip(starts.tolist(), ends.tolist()):
            k = kind[s:e]
            m = int((k == 0).sum())
            if m == 0:
                continue  # only ghosts here: their home cell owns nothing
            tot = e - s
            if tot > max_cell_points:
                raise ValueError(
                    f"ripley: {tot} points in one cell "
                    f"(> max_cell_points={max_cell_points}); the distance "
                    "block would be quadratic — shrink radii or pre-thin"
                )
            X, Y = px[s:e], py[s:e]
            dx = X[:m, None] - X[None, :]
            dy = Y[:m, None] - Y[None, :]
            d2 = dx * dx + dy * dy
            mask = np.zeros((m, tot), bool)
            iu = np.triu_indices(m, k=1)
            mask[iu] = True            # home-home upper triangle
            mask[:, m:] = True         # home x ghost, each pair once
            dd = d2[mask]
            for i, r2 in enumerate(r2s.tolist()):
                counts[i] += int((dd <= r2).sum())
        return pa.table(
            {
                "r": pa.array(np.array(radii, np.int64), pa.int64()),
                "c": pa.array(counts, pa.int64()),
            }
        )

    agg = (
        co_shuffle(cells, "cid", _cell_counts)
        .groupby("r")
        .sum("c")
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "r": b["r"],
                "n_pairs": b["sum(c)"],
                "n_points": pa.array(
                    np.full(b.num_rows, n_points, np.int64), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )
