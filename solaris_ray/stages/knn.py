"""kNN join — for every point row, its k nearest features.

Not present in the reference (single-process shapely users call
``sindex.nearest``); required by BASELINE.json north_rule ("kNN joins
between tile footprints and building/road vector layers").  Design per
SURVEY.md §2.4: per-cell candidate lookup with H3-``grid_disk``-style
ring expansion (geom.cells.neighbors) until the k-th best distance is
provably inside the searched rings.

Correctness argument for the stop rule: every cell in ring ``r`` around
a point's cell is at least ``(r-1) * edge`` away from any point inside
the center cell, so once ``(r-1) * edge > d_k`` (current k-th best
distance) no unsearched feature can improve the result.  Ties are
broken by ``feature_id`` ascending (a pinned total order, same role as
the conf-desc tiebreak pinned in
/root/reference/solaris/eval/base.py:532-533).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import cells
from ._buckets import co_shuffle, per_key, top_k

KNN_SCHEMA = pa.schema(
    [
        ("point_id", pa.int64()),
        ("feature_id", pa.int64()),
        ("rank", pa.int32()),
        ("d2", pa.float64()),
    ]
)

# cells of the (stragglers x features) float64 distance matrix the
# streaming brute pass holds per batch: 128 MiB
_D2_CELLS = 1 << 24


class CentroidIndex:
    """Cell-bucketed feature centroids: cell id -> (row indices)."""

    __slots__ = ("feature_id", "xy", "buckets", "cell_res", "edge")

    def __init__(self, tbl: pa.Table, cell_res: int, x_col: str = "cx", y_col: str = "cy"):
        self.cell_res = cell_res
        self.edge = cells.cell_edge(cell_res)
        self.feature_id = tbl["feature_id"].to_numpy().astype(np.int64)
        self.xy = np.stack(
            [tbl[x_col].to_numpy().astype(np.float64), tbl[y_col].to_numpy().astype(np.float64)],
            axis=1,
        )
        from .joins import CellBuckets

        cc = cells.cell_of_point(self.xy[:, 0], self.xy[:, 1], cell_res)
        order = np.argsort(cc, kind="stable")
        cc = cc[order]
        uniq, starts = np.unique(cc, return_index=True)
        ends = np.append(starts[1:], len(cc))
        # CSR flat arrays -> zero-copy broadcast (see joins.CellBuckets)
        self.buckets = CellBuckets(uniq, starts.astype(np.int64), ends.astype(np.int64), order)

    def candidates(self, cell: int, ring: int) -> np.ndarray:
        """Feature rows in cells at exactly ring distance ``ring``."""
        if ring == 0:
            got = self.buckets.get(int(cell))
            return got if got is not None else np.empty(0, dtype=np.int64)
        res, ix, iy = cells.cell_decode(np.asarray([cell], dtype=np.uint64))
        r, x, y = int(res[0]), int(ix[0]), int(iy[0])
        n = 1 << 29
        out = []
        for dx in range(-ring, ring + 1):
            for dy in range(-ring, ring + 1):
                if max(abs(dx), abs(dy)) != ring:
                    continue
                cx, cy = x + dx, y + dy
                if 0 <= cx < n and 0 <= cy < n:
                    got = self.buckets.get((r << 58) | (cx << 29) | cy)
                    if got is not None:
                        out.append(got)
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)


def knn_for_cell_group(
    index: CentroidIndex,
    cell: int,
    point_id: np.ndarray,
    px: np.ndarray,
    py: np.ndarray,
    k: int,
    max_ring: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All points sharing one cell → their kNN rows (vectorized).

    Expands rings together for the whole group; the stop bound uses the
    group's worst (largest) current d_k, so no point stops early.
    """
    cand_rows = np.empty(0, dtype=np.int64)
    ring = 0
    npts = len(px)
    while True:
        new = index.candidates(cell, ring)
        if len(new):
            cand_rows = np.concatenate([cand_rows, new])
        have = len(cand_rows)
        if have >= k:
            # current k-th best per point (group worst) from what we have
            dx = px[:, None] - index.xy[cand_rows, 0][None, :]
            dy = py[:, None] - index.xy[cand_rows, 1][None, :]
            d2 = dx * dx + dy * dy
            kk = min(k, have)
            part = np.partition(d2, kk - 1, axis=1)[:, kk - 1]
            worst_dk = float(np.sqrt(part.max()))
            if (ring - 1) * index.edge > worst_dk or ring >= max_ring:
                break
        elif ring >= max_ring:
            break
        ring += 1
    if len(cand_rows) == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z.astype(np.int32), z.astype(np.float64)
    dx = px[:, None] - index.xy[cand_rows, 0][None, :]
    dy = py[:, None] - index.xy[cand_rows, 1][None, :]
    d2 = dx * dx + dy * dy
    fids = index.feature_id[cand_rows]
    kk = min(k, len(cand_rows))
    # top-k per point with (d2, feature_id) total order.  argpartition
    # alone is WRONG at ties: candidates equal to the kth distance get
    # cut arbitrarily, ignoring the feature_id tiebreak (surfaces with
    # duplicate centroid positions).  Keep EVERY candidate at <= the
    # kth value, then lexsort that short slice.
    kth = (
        np.partition(d2, kk - 1, axis=1)[:, kk - 1]
        if len(cand_rows) > kk
        else d2.max(axis=1)
    )
    rows_pid, rows_fid, rows_rank, rows_d2 = [], [], [], []
    for i in range(npts):
        ci = np.nonzero(d2[i] <= kth[i])[0]
        o = ci[np.lexsort((fids[ci], d2[i][ci]))][:kk]
        rows_pid.append(np.full(len(o), point_id[i], dtype=np.int64))
        rows_fid.append(fids[o])
        rows_rank.append(np.arange(1, len(o) + 1, dtype=np.int32))
        rows_d2.append(d2[i][o])
    return (
        np.concatenate(rows_pid),
        np.concatenate(rows_fid),
        np.concatenate(rows_rank),
        np.concatenate(rows_d2),
    )


def _topk_rows(point_id, px, py, fx, fy, fid, k):
    """Vectorized per-group top-k with the (d2, feature_id) total order
    (same tie discipline as knn_for_cell_group).  Returns row arrays +
    per-point kth distance (inf when fewer than k candidates)."""
    if len(fx) == 0:
        z = np.empty(0, dtype=np.int64)
        return (z, z, z.astype(np.int32), z.astype(np.float64),
                np.full(len(px), np.inf))
    dx = px[:, None] - fx[None, :]
    dy = py[:, None] - fy[None, :]
    d2 = dx * dx + dy * dy
    kk = min(k, len(fx))
    kth = (
        np.partition(d2, kk - 1, axis=1)[:, kk - 1]
        if len(fx) > kk
        else d2.max(axis=1)
    )
    rows_pid, rows_fid, rows_rank, rows_d2 = [], [], [], []
    dk = np.full(len(px), np.inf)
    for i in range(len(px)):
        ci = np.nonzero(d2[i] <= kth[i])[0]
        o = ci[np.lexsort((fid[ci], d2[i][ci]))][:kk]
        rows_pid.append(np.full(len(o), point_id[i], dtype=np.int64))
        rows_fid.append(fid[o])
        rows_rank.append(np.arange(1, len(o) + 1, dtype=np.int32))
        rows_d2.append(d2[i][o])
        if len(o) >= k:
            dk[i] = float(np.sqrt(d2[i][o[-1]]))
    return (
        np.concatenate(rows_pid),
        np.concatenate(rows_fid),
        np.concatenate(rows_rank),
        np.concatenate(rows_d2),
        dk,
    )


def cell_partitioned_knn_join(
    points,
    features,
    k: int = 3,
    cell_res: int = 13,
    fx_col: str = "cx",
    fy_col: str = "cy",
    id_col: str = "point_id",
    x_col: str = "x",
    y_col: str = "y",
    max_halo_passes: int = 3,
    brute_cutoff: int = 2048,
):
    """Both-sides-large kNN: a ``co_shuffle`` on the cell with feature halo
    replication (the cell-partitioned twin of ``broadcast_knn_join``,
    mirroring ``joins.cell_partitioned_join``'s owner-cell pattern).

    Pass p replicates every FEATURE to all cells within Chebyshev ring
    ``R`` of its own cell (halo), points to their own cell only, and
    joins per group.  A point's result is PROVEN final when its k-th
    distance is < R*edge (any feature outside the halo is at least
    R*edge away); unresolved points re-shuffle in the next pass with
    R *= 3.  After ``max_halo_passes`` the (tiny) residual straggler
    set switches to a STREAMING brute-force pass: stragglers broadcast,
    features stream through partial top-k + one ``top_k`` merge
    (ann.brute_topk shape) — exact at any sparsity without halo blowup.
    Output is bit-identical to the broadcast path (parity-tested).

    Scale shape: halo factor (2R+1)^2 applies only at R=1 for the bulk
    (9x replication of tiny centroid rows).  Escalation passes are
    restricted on BOTH sides: the point side re-shuffles only
    stragglers, and the feature side keeps only replicas landing in a
    straggler's cell (the straggler cell set is tiny and broadcast into
    the tag kernel), so one unresolved point can never trigger a
    (2R+1)^2 full-corpus re-replication.  When the straggler count
    drops below ``brute_cutoff`` the join jumps straight to the
    streaming brute pass.  Neither side is ever materialized on one
    node.
    """
    import ray

    edge = cells.cell_edge(cell_res)
    results = []  # one "done" Dataset per pass, unioned at the end
    R = 1
    pts = points
    allowed_cells: np.ndarray | None = None  # straggler target cells
    for p in range(max_halo_passes):

        def _tag_feats(batch: pa.Table, R=R, allowed=allowed_cells) -> pa.Table:
            fx = batch[fx_col].to_numpy().astype(np.float64)
            fy = batch[fy_col].to_numpy().astype(np.float64)
            fid = batch["feature_id"].to_numpy().astype(np.int64)
            cc = cells.cell_of_point(fx, fy, cell_res)
            res, ix, iy = cells.cell_decode(cc.astype(np.uint64))
            n = 1 << 29
            rows, ocells = [], []
            for dx in range(-R, R + 1):
                for dy in range(-R, R + 1):
                    cx = ix.astype(np.int64) + dx
                    cy = iy.astype(np.int64) + dy
                    ok = (cx >= 0) & (cx < n) & (cy >= 0) & (cy < n)
                    rows.append(np.nonzero(ok)[0])
                    ocells.append(
                        (np.int64(cell_res) << np.int64(58))
                        | (cx[ok] << np.int64(29))
                        | cy[ok]
                    )
            r = np.concatenate(rows)
            oc = np.concatenate(ocells)
            if allowed is not None:
                # escalation pass: a feature replica is useful only in a
                # cell where a straggler point waits — drop the rest
                m = np.isin(oc, allowed)
                r, oc = r[m], oc[m]
            return pa.table(
                {
                    "cell": pa.array(oc, pa.int64()),
                    "side": pa.array(np.ones(len(r), dtype=np.int8)),
                    "pid": pa.array(fid[r], pa.int64()),
                    "x": pa.array(fx[r], pa.float64()),
                    "y": pa.array(fy[r], pa.float64()),
                }
            )

        def _tag_pts(batch: pa.Table) -> pa.Table:
            px = batch[x_col].to_numpy().astype(np.float64)
            py = batch[y_col].to_numpy().astype(np.float64)
            cc = cells.cell_of_point(px, py, cell_res).astype(np.int64)
            return pa.table(
                {
                    "cell": pa.array(cc, pa.int64()),
                    "side": pa.array(np.zeros(len(px), dtype=np.int8)),
                    "pid": pa.array(batch[id_col].to_numpy().astype(np.int64), pa.int64()),
                    "x": pa.array(px, pa.float64()),
                    "y": pa.array(py, pa.float64()),
                }
            )

        f_side = features.map_batches(_tag_feats, batch_format="pyarrow")
        p_side = pts.map_batches(_tag_pts, batch_format="pyarrow")

        out_schema = pa.schema(
            [
                ("point_id", pa.int64()),
                ("feature_id", pa.int64()),
                ("rank", pa.int32()),
                ("d2", pa.float64()),
                ("resolved", pa.int8()),
                ("px", pa.float64()),
                ("py", pa.float64()),
            ]
        )

        def _group(group: pa.Table, R=R) -> pa.Table:
            side = group["side"].to_numpy()
            prow = np.nonzero(side == 0)[0]
            frow = np.nonzero(side == 1)[0]
            if len(prow) == 0:
                return out_schema.empty_table()
            pid = group["pid"].to_numpy()[prow]
            px = group["x"].to_numpy()[prow]
            py = group["y"].to_numpy()[prow]
            fid = group["pid"].to_numpy()[frow]
            fx = group["x"].to_numpy()[frow]
            fy = group["y"].to_numpy()[frow]
            rp, rf, rr, rd, dk = _topk_rows(pid, px, py, fx, fy, fid, k)
            ok = dk < R * edge
            res_map = dict(zip(pid.tolist(), ok.tolist()))
            px_map = dict(zip(pid.tolist(), px.tolist()))
            py_map = dict(zip(pid.tolist(), py.tolist()))
            resolved = np.asarray([res_map[v] for v in rp.tolist()], dtype=np.int8)
            # unresolved points with zero candidate rows must still
            # re-shuffle: emit a sentinel row (rank 0) carrying coords
            missing = [v for v, o in res_map.items() if not o and v not in set(rp.tolist())]
            out = {
                "point_id": rp, "feature_id": rf, "rank": rr, "d2": rd,
                "resolved": resolved,
                "px": np.asarray([px_map[v] for v in rp.tolist()]),
                "py": np.asarray([py_map[v] for v in rp.tolist()]),
            }
            if missing:
                m = np.asarray(missing, dtype=np.int64)
                out = {
                    "point_id": np.concatenate([rp, m]),
                    "feature_id": np.concatenate([rf, np.full(len(m), -1, dtype=np.int64)]),
                    "rank": np.concatenate([rr, np.zeros(len(m), dtype=np.int32)]),
                    "d2": np.concatenate([rd, np.zeros(len(m))]),
                    "resolved": np.concatenate([resolved, np.zeros(len(m), dtype=np.int8)]),
                    "px": np.concatenate([out["px"], np.asarray([px_map[v] for v in missing])]),
                    "py": np.concatenate([out["py"], np.asarray([py_map[v] for v in missing])]),
                }
            return pa.table({kk_: pa.array(vv) for kk_, vv in out.items()}, schema=out_schema)

        pass_out = co_shuffle(p_side.union(f_side), "cell",
                              per_key("cell", _group)).materialize()
        done = pass_out.filter(lambda r: r["resolved"] == 1 and r["rank"] >= 1)
        results.append(
            done.map_batches(
                lambda b: b.select(["point_id", "feature_id", "rank", "d2"]).cast(KNN_SCHEMA),
                batch_format="pyarrow",
            )
        )
        todo = pass_out.filter(lambda r: r["resolved"] == 0)
        n_todo = todo.count()
        if n_todo == 0:
            break
        # next pass: only unresolved points (one row each: every row of a
        # point carries its coordinates), bigger halo
        pts = (
            top_k(todo.select_columns(["point_id", "px", "py"]), "point_id", [], 1)
            .map_batches(lambda b: pa.table({id_col: b["point_id"], x_col: b["px"],
                                             y_col: b["py"]}), batch_format="pyarrow")
            .materialize()
        )
        if n_todo <= brute_cutoff:
            # few enough stragglers: a streaming brute pass beats
            # another full feature tag+shuffle round
            results.append(_brute_knn_stream(pts, features, k, fx_col, fy_col,
                                             id_col, x_col, y_col))
            pts = None
            break
        # straggler cell set (tiny by construction): feature replicas
        # landing anywhere else are dropped before the shuffle
        qdf = pts.to_pandas()
        allowed_cells = np.unique(
            cells.cell_of_point(
                qdf[x_col].to_numpy(np.float64),
                qdf[y_col].to_numpy(np.float64),
                cell_res,
            ).astype(np.int64)
        )
        R *= 3
    else:
        # stragglers after the halo passes: streaming brute force
        results.append(_brute_knn_stream(pts, features, k, fx_col, fy_col,
                                         id_col, x_col, y_col))
    if not results:
        return ray.data.from_arrow(KNN_SCHEMA.empty_table())
    out = results[0]
    for r in results[1:]:
        out = out.union(r)
    return out


class _StragglerScorer:
    """Per-batch partial top-k of a broadcast point set against a batch
    of features (``_topk_rows``' (d2, feature_id) order)."""

    def __init__(self, points_ref, k: int, fx_col: str, fy_col: str):
        import ray

        self.pid, self.px, self.py = ray.get(points_ref)
        self.k, self.fx_col, self.fy_col = k, fx_col, fy_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        fx = batch[self.fx_col].to_numpy().astype(np.float64)
        fy = batch[self.fy_col].to_numpy().astype(np.float64)
        fid = batch["feature_id"].to_numpy().astype(np.int64)
        rp, rf, _, rd, _ = _topk_rows(self.pid, self.px, self.py, fx, fy, fid, self.k)
        return pa.table(
            {
                "point_id": pa.array(rp, pa.int64()),
                "feature_id": pa.array(rf, pa.int64()),
                "d2": pa.array(rd, pa.float64()),
            }
        )


def _brute_knn_stream(pts, features, k, fx_col, fy_col, id_col, x_col, y_col):
    """Exact kNN for a SMALL broadcast point set against a STREAMING
    feature Dataset: per-batch partial top-k, then one ``top_k`` merge
    on point_id -- the ann.brute_topk shape applied to coordinates."""
    import ray

    from ..runtime import stateful_map

    q = pts.to_pandas()  # stragglers are tiny by construction
    if len(q) == 0:
        return ray.data.from_arrow(KNN_SCHEMA.empty_table())
    qref = ray.put(
        (
            q[id_col].to_numpy().astype(np.int64),
            q[x_col].to_numpy().astype(np.float64),
            q[y_col].to_numpy().astype(np.float64),
        )
    )
    partial = stateful_map(
        features, _StragglerScorer,
        {"points_ref": qref, "k": k, "fx_col": fx_col, "fy_col": fy_col},
        batch_size=max(1, _D2_CELLS // len(q)),
    )
    return top_k(partial, "point_id", [("d2", "ascending"), ("feature_id", "ascending")],
                 k).map_batches(lambda b: b.select(KNN_SCHEMA.names).cast(KNN_SCHEMA),
                                batch_format="pyarrow")


class BroadcastKNNJoiner:
    """``stateful_map`` body: points × broadcast centroid index."""

    def __init__(self, features_ref, k: int = 3, cell_res: int = 13, max_ring: int = 512,
                 id_col: str = "point_id", x_col: str = "x", y_col: str = "y",
                 fx_col: str = "cx", fy_col: str = "cy"):
        import ray

        obj = features_ref if isinstance(features_ref, (pa.Table, CentroidIndex)) else ray.get(features_ref)
        self.index = obj if isinstance(obj, CentroidIndex) else CentroidIndex(obj, cell_res, fx_col, fy_col)
        self.k = k
        self.max_ring = max_ring
        self.id_col, self.x_col, self.y_col = id_col, x_col, y_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        pid = batch[self.id_col].to_numpy().astype(np.int64)
        px = batch[self.x_col].to_numpy().astype(np.float64)
        py = batch[self.y_col].to_numpy().astype(np.float64)
        pc = cells.cell_of_point(px, py, self.index.cell_res)
        order = np.argsort(pc, kind="stable")
        pc_s = pc[order]
        uniq, starts = np.unique(pc_s, return_index=True)
        ends = np.append(starts[1:], len(pc_s))
        outs = []
        for c, s, e in zip(uniq.tolist(), starts, ends):
            rows = order[s:e]
            outs.append(
                knn_for_cell_group(
                    self.index, int(c), pid[rows], px[rows], py[rows], self.k, self.max_ring
                )
            )
        if not outs:
            return KNN_SCHEMA.empty_table()
        return pa.table(
            {
                "point_id": np.concatenate([o[0] for o in outs]),
                "feature_id": np.concatenate([o[1] for o in outs]),
                "rank": np.concatenate([o[2] for o in outs]),
                "d2": np.concatenate([o[3] for o in outs]),
            },
            schema=KNN_SCHEMA,
        )


def broadcast_knn_join(
    points,
    features: pa.Table,
    k: int = 3,
    cell_res: int | None = None,
    batch_size: int = 2048,
    **col_kwargs,
):
    """points Dataset × in-memory centroid table → kNN rows Dataset."""
    import ray

    from ..runtime import stateful_map

    if cell_res is None:
        fx = features[col_kwargs.get("fx_col", "cx")]
        fy = features[col_kwargs.get("fy_col", "cy")]
        import pyarrow.compute as _pc

        cell_res = cells.choose_res(
            float(_pc.min(fx).as_py()), float(_pc.min(fy).as_py()),
            float(_pc.max(fx).as_py()), float(_pc.max(fy).as_py()),
            features.num_rows, target_per_cell=32,
        )
    ref = ray.put(CentroidIndex(features, cell_res,
                                col_kwargs.get("fx_col", "cx"), col_kwargs.get("fy_col", "cy")))
    return stateful_map(
        points, BroadcastKNNJoiner,
        {"features_ref": ref, "k": k, "cell_res": cell_res, **col_kwargs},
        batch_size=batch_size,
    )


def haversine_m(lon1, lat1, lon2, lat2, r: float = 6371008.8):
    """Vectorized great-circle distance in metres (the standard
    haversine; inputs degrees, broadcastable arrays)."""
    p1 = np.radians(np.asarray(lat1, np.float64))
    p2 = np.radians(np.asarray(lat2, np.float64))
    dl = np.radians(np.asarray(lon2, np.float64)
                    - np.asarray(lon1, np.float64))
    dp = p2 - p1
    a = np.sin(dp / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dl / 2.0) ** 2
    return 2.0 * r * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def haversine_topk(points, q_ids: np.ndarray, q_lon: np.ndarray,
                   q_lat: np.ndarray, k: int = 5,
                   id_col: str = "point_id", lon_col: str = "lon",
                   lat_col: str = "lat", batch_size: int = 8192):
    """Exact great-circle kNN of each query over a lon/lat point
    Dataset — the geodesic sibling of the planar kNN join.

    Streaming shape = ann.brute_topk: queries broadcast once via
    ``ray.put``, every corpus batch emits its LOCAL top-k candidate
    rows per query (q x k rows per batch, never the batch itself),
    one ``top_k`` merge on query_id finishes.  Ordering is
    (mm-rounded distance, point id) on BOTH sides of the oracle so
    float ties can never reorder ranks.  Output
    (query_id, rank, point_id, dist_mm).
    """
    import ray

    ref = ray.put((np.asarray(q_ids, np.int64),
                   np.asarray(q_lon, np.float64),
                   np.asarray(q_lat, np.float64)))

    part_schema = pa.schema([
        ("query_id", pa.int64()), ("point_id", pa.int64()),
        ("dist_mm", pa.int64()),
    ])

    def _partial(batch: pa.Table) -> pa.Table:
        qi, qlon, qlat = ray.get(ref)
        n = batch.num_rows
        if n == 0 or qi.size == 0:
            return part_schema.empty_table()
        pid = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lon = batch[lon_col].to_numpy(zero_copy_only=False)
        lat = batch[lat_col].to_numpy(zero_copy_only=False)
        # (queries x batch) distance matrix in integer millimetres
        d = haversine_m(qlon[:, None], qlat[:, None], lon[None, :], lat[None, :])
        dmm = np.trunc(d * 1000.0).astype(np.int64)  # trunc-semantics micro-units (house rule: np.trunc == SQL trunc; round() differs on .5)
        kk = min(k, n)
        out_q, out_p, out_d = [], [], []
        for r in range(qi.size):
            order = np.lexsort((pid, dmm[r]))[:kk]
            out_q.append(np.full(kk, qi[r], np.int64))
            out_p.append(pid[order])
            out_d.append(dmm[r][order])
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q), pa.int64()),
            "point_id": pa.array(np.concatenate(out_p), pa.int64()),
            "dist_mm": pa.array(np.concatenate(out_d), pa.int64()),
        })

    partial = points.map_batches(_partial, batch_format="pyarrow",
                                 batch_size=batch_size)
    out = top_k(partial, "query_id", [("dist_mm", "ascending"), ("point_id", "ascending")], k)
    return out.map_batches(lambda b: b.select(["query_id", "rank", "point_id", "dist_mm"]),
                           batch_format="pyarrow")
