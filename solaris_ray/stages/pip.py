"""Point-in-polygon join — vectorized PIP between point rows and a
polygon layer (north_star: "vectorized point-in-polygon ... joins
between tile footprints and building/road vector layers").

The reference's PIP machinery is rasterio/shapely-backed R-tree lookup
plus exact predicates (get_overlapping_subset,
/root/reference/solaris/vector/polygon.py:261-326; sindex candidate
search /root/reference/solaris/tile/vector_tile.py:198-224).  Here the
R-tree is replaced by the cell-bucket index (geom.cells) and the exact
predicate is the vectorized even-odd crossing test
(geom.poly.points_in_polygon) — no per-row Python in the hot loop:
points are grouped by cell once per batch and each candidate feature is
tested against the whole point group at once.

Physical strategy: broadcast (``ray.put`` the feature layer once, each
worker builds its bucket index in ``__init__``).  For a both-sides-large
join, reuse ``joins.cell_partitioned_join``'s co-shuffle with this
module's predicate kernels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import cells
from ..geom.poly import points_in_polygon

PIP_SCHEMA = pa.schema(
    [
        ("point_id", pa.int64()),
        ("feature_id", pa.int64()),
        ("x", pa.float64()),
        ("y", pa.float64()),
    ]
)


class BoxIndex:
    """Cell-bucketed index over axis-aligned boxes (or polygon rings).

    ``rings`` is optional packed ring storage; when present the exact
    even-odd test runs after the bbox prefilter, otherwise the bbox IS
    the geometry (half-open: minx <= x < maxx, miny <= y < maxy — the
    same convention the tile grid uses, so a point on a shared tile
    edge joins exactly one tile).
    """

    __slots__ = ("feature_id", "bbox", "coords", "offsets", "buckets", "cell_res")

    def __init__(self, tbl: pa.Table, cell_res: int, with_rings: bool):
        self.cell_res = cell_res
        self.feature_id = tbl["feature_id"].to_numpy()
        if "minx" in tbl.column_names:
            self.bbox = np.stack(
                [tbl[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")], axis=1
            )
        else:
            with_rings = True
            self.bbox = None
        if with_rings:
            xs = tbl["xs"].combine_chunks()
            ys = tbl["ys"].combine_chunks()
            if isinstance(xs, pa.ChunkedArray):
                xs = pa.concat_arrays(xs.chunks) if xs.num_chunks != 1 else xs.chunk(0)
                ys = pa.concat_arrays(ys.chunks) if ys.num_chunks != 1 else ys.chunk(0)
            self.offsets = xs.offsets.to_numpy().astype(np.int64)
            self.coords = np.stack([xs.values.to_numpy(), ys.values.to_numpy()], axis=1)
            if self.bbox is None:
                starts = self.offsets[:-1]
                x, y = self.coords[:, 0], self.coords[:, 1]
                self.bbox = np.stack(
                    [
                        np.minimum.reduceat(x, starts),
                        np.minimum.reduceat(y, starts),
                        np.maximum.reduceat(x, starts),
                        np.maximum.reduceat(y, starts),
                    ],
                    axis=1,
                )
        else:
            self.coords = None
            self.offsets = None
        # CSR flat-array buckets (joins.CellBuckets): zero-copy plasma
        # ship instead of one pickled PyObject per bucket
        from .joins import CellBuckets

        rows, cc = cells.cover_bboxes(
            self.bbox[:, 0], self.bbox[:, 1], self.bbox[:, 2], self.bbox[:, 3], cell_res
        )
        order = np.argsort(cc, kind="stable")
        cc, rows = cc[order], rows[order]
        uniq, starts = np.unique(cc, return_index=True)
        ends = np.append(starts[1:], len(cc))
        self.buckets = CellBuckets(uniq, starts.astype(np.int64), ends.astype(np.int64), rows)

    def ring(self, i: int) -> np.ndarray:
        return self.coords[self.offsets[i] : self.offsets[i + 1]]


def pip_batch(
    index: BoxIndex, point_id: np.ndarray, px: np.ndarray, py: np.ndarray, exact: bool
) -> pa.Table:
    """One batch of points vs the index → (point_id, feature_id) rows.

    Points are grouped by cell (one sort), then every candidate feature
    in a cell bucket is tested against the whole point group at once —
    the vectorization axis is the point group, not the feature.
    """
    pc = cells.cell_of_point(px, py, index.cell_res)
    order = np.argsort(pc, kind="stable")
    pc_s = pc[order]
    uniq, starts = np.unique(pc_s, return_index=True)
    ends = np.append(starts[1:], len(pc_s))
    out_pid: list[np.ndarray] = []
    out_fid: list[np.ndarray] = []
    out_x: list[np.ndarray] = []
    out_y: list[np.ndarray] = []
    for c, s, e in zip(uniq.tolist(), starts, ends):
        cand = index.buckets.get(int(c))
        if cand is None:
            continue
        rows_all = order[s:e]
        b = index.bbox[cand]
        # bound the (points x candidates) matrix at ~4M cells: chunk the
        # point axis when a degenerate bucket holds many candidates
        chunk = max(1, 4_000_000 // max(1, len(cand)))
        chunks = [rows_all[i : i + chunk] for i in range(0, len(rows_all), chunk)]
        for rows in chunks:
            _pip_cell_chunk(index, cand, b, rows, point_id, px, py, exact,
                            out_pid, out_fid, out_x, out_y)
    if not out_pid:
        return PIP_SCHEMA.empty_table()
    return pa.table(
        {
            "point_id": np.concatenate(out_pid),
            "feature_id": np.concatenate(out_fid),
            "x": np.concatenate(out_x),
            "y": np.concatenate(out_y),
        },
        schema=PIP_SCHEMA,
    )


def _pip_cell_chunk(index, cand, b, rows, point_id, px, py, exact,
                    out_pid, out_fid, out_x, out_y) -> None:
    gx, gy = px[rows], py[rows]
    # full (points x candidates) matrix test — no per-feature loop
    hit = (
        (gx[:, None] >= b[None, :, 0])
        & (gx[:, None] < b[None, :, 2])
        & (gy[:, None] >= b[None, :, 1])
        & (gy[:, None] < b[None, :, 3])
    )
    pi, fi = np.nonzero(hit)
    if len(pi) == 0:
        return
    if exact:
        # refine per matched feature (pairs grouped by feature)
        o2 = np.argsort(fi, kind="stable")
        pi, fi = pi[o2], fi[o2]
        fu, fs = np.unique(fi, return_index=True)
        fe = np.append(fs[1:], len(fi))
        keep = np.zeros(len(pi), dtype=bool)
        for u, a, z in zip(fu.tolist(), fs, fe):
            sub = pi[a:z]
            keep[a:z] = points_in_polygon(gx[sub], gy[sub], index.ring(int(cand[u])))
        pi, fi = pi[keep], fi[keep]
        if len(pi) == 0:
            return
    r = rows[pi]
    out_pid.append(point_id[r])
    out_fid.append(index.feature_id[cand[fi]])
    out_x.append(px[r])
    out_y.append(py[r])


class BroadcastPIPJoiner:
    """``stateful_map`` body: point rows × broadcast polygon layer.

    The feature table is ``ray.put`` once; each worker fetches it and
    builds the cell-bucket index in ``__init__`` (once per worker, the
    Pool-initializer broadcast pattern of
    /root/reference/solaris/vector/graph.py:341-349).
    """

    def __init__(self, features_ref, cell_res: int = 13, exact: bool = False,
                 id_col: str = "point_id", x_col: str = "x", y_col: str = "y"):
        import ray

        obj = features_ref if isinstance(features_ref, (pa.Table, BoxIndex)) else ray.get(features_ref)
        self.index = obj if isinstance(obj, BoxIndex) else BoxIndex(obj, cell_res, with_rings=exact)
        self.exact = exact
        self.id_col, self.x_col, self.y_col = id_col, x_col, y_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pip_batch(
            self.index,
            batch[self.id_col].to_numpy().astype(np.int64),
            batch[self.x_col].to_numpy().astype(np.float64),
            batch[self.y_col].to_numpy().astype(np.float64),
            self.exact,
        )


def broadcast_pip_join(
    points,
    features: pa.Table,
    cell_res: int | None = None,
    exact: bool = False,
    batch_size: int = 2048,
    id_col: str = "point_id",
    x_col: str = "x",
    y_col: str = "y",
):
    """points Dataset × in-memory polygon/box table → match Dataset.

    ``exact=False`` uses the half-open bbox predicate (boxes ARE the
    geometry); ``exact=True`` adds the even-odd crossing test on the
    ring columns after the bbox prefilter.
    """
    import ray

    from ..runtime import stateful_map

    if cell_res is None:
        cell_res = cells.choose_res(
            float(pa.compute.min(features["minx"]).as_py()),
            float(pa.compute.min(features["miny"]).as_py()),
            float(pa.compute.max(features["maxx"]).as_py()),
            float(pa.compute.max(features["maxy"]).as_py()),
            features.num_rows,
        )
    ref = ray.put(BoxIndex(features, cell_res, with_rings=exact))
    return stateful_map(
        points, BroadcastPIPJoiner,
        {"features_ref": ref, "cell_res": cell_res, "exact": exact,
         "id_col": id_col, "x_col": x_col, "y_col": y_col},
        batch_size=batch_size,
    )
