"""Road-network graph builder — solaris.vector.graph re-expressed.

Reference (/root/reference/solaris/vector/graph.py):

- nodes = every linestring vertex, deduplicated by EXACT geometry with
  ``drop_duplicates(keep='last')`` (:326-334), ids assigned
  sequentially; built in parallel with a Pool + broadcast node frame
  (:318-349).
- edges = consecutive vertex pairs per linestring, weighted by
  Euclidean distance (:79-88).
- export: nodes.geojson + edges.geojson (:453-545).

Ray mapping (SURVEY.md §2.7): node dedup is a hash-partition groupby on
the exact (x, y) pair; node ids here are assigned by (x, y) sort order
— deterministic at any parallelism, unlike the reference's
insertion-order ids (documented deviation: the graphs are isomorphic,
ids differ; tests compare structure).

Everything stays in the engine: node-id assignment is a distributed
sort + ordered per-block offset enumeration (only per-block ROW COUNTS
touch the driver), and edge endpoints resolve through a hash join on
the exact (x, y) key — a ``groupby(x, y)`` co-shuffle — instead of a
broadcast node dict.  At continental road-network scale neither the
vertex set nor the node map ever materializes on one machine.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

NODE_SCHEMA = pa.schema(
    [("node_id", pa.int64()), ("x", pa.float64()), ("y", pa.float64()), ("n_refs", pa.int64())]
)
EDGE_SCHEMA = pa.schema(
    [
        ("edge_id", pa.int64()),
        ("road_id", pa.int64()),
        ("seq", pa.int32()),
        ("u", pa.int64()),
        ("v", pa.int64()),
        ("length", pa.float64()),
    ]
)


def explode_vertices(batch: pa.Table, id_col: str = "feature_id") -> pa.Table:
    xs = batch["xs"].combine_chunks() if isinstance(batch["xs"], pa.ChunkedArray) else batch["xs"]
    ys = batch["ys"].combine_chunks() if isinstance(batch["ys"], pa.ChunkedArray) else batch["ys"]
    if isinstance(xs, pa.ChunkedArray):
        xs = pa.concat_arrays(xs.chunks)
        ys = pa.concat_arrays(ys.chunks)
    counts = np.diff(xs.offsets.to_numpy())
    rid = np.repeat(batch[id_col].to_numpy(), counts)
    seq = np.concatenate([np.arange(c) for c in counts]) if len(counts) else np.empty(0, dtype=np.int64)
    return pa.table(
        {
            "road_id": pa.array(rid.astype(np.int64)),
            "seq": pa.array(seq.astype(np.int32)),
            "x": pa.array(xs.values.to_numpy()),
            "y": pa.array(ys.values.to_numpy()),
        }
    )


def dedup_nodes(roads, id_col: str = "feature_id"):
    """roads Dataset -> nodes Dataset with sorted-(x, y)-rank ids.

    Distributed: groupby-dedup on the exact vertex, global sort, then
    ordered per-block offset enumeration — only the per-block row
    COUNTS come to the driver (one int per block).
    """
    import ray

    from ._buckets import distinct_reduce

    verts = roads.map_batches(
        lambda b: explode_vertices(b, id_col), batch_format="pyarrow", batch_size=4096
    ).map_batches(
        lambda b: b.append_column(
            "count()", pa.array(np.ones(b.num_rows, np.int64))),
        batch_format="pyarrow",
    )
    # distinct+count via the bucketed vectorized reduce (float keys
    # bit-view; Ray's per-group aggregate costs ~100us per distinct
    # vertex — at graph scale the vertex count IS the corpus scale),
    # then the global sort that defines the rank ids
    uniq = distinct_reduce(
        verts, ["x", "y"], aggs={"count()": "sum"}
    ).sort(["x", "y"]).materialize()
    refs = uniq.to_arrow_refs()  # ordered blocks, still in the object store

    @ray.remote
    def _nrows(block: pa.Table) -> int:
        return block.num_rows

    @ray.remote
    def _assign(block: pa.Table, offset: int) -> pa.Table:
        return pa.table(
            {
                "node_id": pa.array(offset + np.arange(block.num_rows, dtype=np.int64)),
                "x": block["x"],
                "y": block["y"],
                "n_refs": pa.array(
                    block["count()"].to_numpy().astype(np.int64), pa.int64()
                ),
            }
        )

    counts = ray.get([_nrows.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) if counts else []
    # an empty shuffle partition is a block with no columns: skip it
    return ray.data.from_arrow_refs(
        [_assign.remote(r, int(o)) for r, o, c in zip(refs, offsets, counts) if c]
    )


def _segments(batch: pa.Table, id_col: str) -> pa.Table:
    """roads -> one row per consecutive vertex pair (edge attrs)."""
    xs_l = batch["xs"].to_pylist()
    ys_l = batch["ys"].to_pylist()
    rid = batch[id_col].to_numpy()
    out = {k: [] for k in ("edge_id", "road_id", "seq", "x0", "y0", "x1", "y1", "length")}
    for i in range(batch.num_rows):
        px, py = np.asarray(xs_l[i]), np.asarray(ys_l[i])
        seg = np.hypot(np.diff(px), np.diff(py))
        for j in range(len(px) - 1):
            out["edge_id"].append(int(rid[i]) * 4096 + j)
            out["road_id"].append(int(rid[i]))
            out["seq"].append(j)
            out["x0"].append(float(px[j]))
            out["y0"].append(float(py[j]))
            out["x1"].append(float(px[j + 1]))
            out["y1"].append(float(py[j + 1]))
            out["length"].append(float(seg[j]))
    return pa.table(
        {
            "edge_id": pa.array(out["edge_id"], pa.int64()),
            "road_id": pa.array(out["road_id"], pa.int64()),
            "seq": pa.array(out["seq"], pa.int32()),
            "x0": pa.array(out["x0"], pa.float64()),
            "y0": pa.array(out["y0"], pa.float64()),
            "x1": pa.array(out["x1"], pa.float64()),
            "y1": pa.array(out["y1"], pa.float64()),
            "length": pa.array(out["length"], pa.float64()),
        }
    )


def build_graph(roads, id_col: str = "feature_id"):
    """roads Dataset (xs/ys linestrings) -> (nodes Dataset, edges Dataset).

    Edge endpoint resolution is a HASH JOIN on the exact (x, y) key:
    endpoint rows and node rows co-shuffle via ``groupby(x, y)``, each
    group stamps its node_id onto its endpoint rows, then a second
    ``groupby(edge_id)`` reassembles (u, v) — no broadcast node map,
    no driver materialization of the vertex set.
    """
    nodes = dedup_nodes(roads, id_col).materialize()
    segs = roads.map_batches(
        lambda b: _segments(b, id_col), batch_format="pyarrow", batch_size=2048
    ).materialize()

    # Hash-bucketed joins: groups are HASH BUCKETS of the key (1024-way),
    # not individual keys — each map_groups call vectorizes over every
    # key in its bucket (one-group-per-key paid ~1 ms of per-group
    # machinery per EDGE, the graph build's measured bottleneck).
    NB = 1024

    def _xy_bucket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (
            (x.view(np.int64) * np.int64(1000003)) ^ y.view(np.int64)
        ) % NB

    # endpoint rows: one per (edge, role); role 0 = u (x0,y0), 1 = v
    def _endpoints(b: pa.Table) -> pa.Table:
        n = b.num_rows
        x = np.concatenate([b["x0"].to_numpy(), b["x1"].to_numpy()])
        y = np.concatenate([b["y0"].to_numpy(), b["y1"].to_numpy()])
        return pa.table(
            {
                "bucket": pa.array(_xy_bucket(x, y), pa.int64()),
                "x": pa.array(x),
                "y": pa.array(y),
                "side": pa.array(np.ones(2 * n, dtype=np.int8)),
                "edge_id": pa.array(np.tile(b["edge_id"].to_numpy(), 2), pa.int64()),
                "role": pa.array(
                    np.concatenate([np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)])
                ),
                "node_id": pa.nulls(2 * n, pa.int64()),
            }
        )

    def _node_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        x = b["x"].to_numpy()
        y = b["y"].to_numpy()
        return pa.table(
            {
                "bucket": pa.array(_xy_bucket(x, y), pa.int64()),
                "x": b["x"],
                "y": b["y"],
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "edge_id": pa.nulls(n, pa.int64()),
                "role": pa.nulls(n, pa.int8()),
                "node_id": b["node_id"],
            }
        )

    ep = segs.map_batches(_endpoints, batch_format="pyarrow")
    ns = nodes.map_batches(_node_side, batch_format="pyarrow")

    def _resolve(group: pa.Table) -> pa.Table:
        """One hash bucket: stamp node ids onto endpoint rows by exact
        (x, y) match — vectorized searchsorted over the bucket's nodes."""
        side = group["side"].to_numpy()
        nrow = np.nonzero(side == 0)[0]
        erow = np.nonzero(side == 1)[0]
        if len(erow) == 0 or len(nrow) == 0:
            return pa.schema(
                [("edge_id", pa.int64()), ("role", pa.int8()), ("node_id", pa.int64())]
            ).empty_table()
        x = group["x"].to_numpy()
        y = group["y"].to_numpy()
        key = np.stack([x, y], axis=1).view([("x", np.float64), ("y", np.float64)]).ravel()
        nkey = key[nrow]
        order = np.argsort(nkey, kind="stable")
        nkey_s = nkey[order]
        nids = group["node_id"].to_numpy(zero_copy_only=False)[nrow][order].astype(np.int64)
        pos = np.searchsorted(nkey_s, key[erow])
        pos = np.clip(pos, 0, len(nkey_s) - 1)
        ok = nkey_s[pos] == key[erow]
        er = erow[ok]
        return pa.table(
            {
                "edge_id": pa.array(group["edge_id"].to_numpy(zero_copy_only=False)[er].astype(np.int64), pa.int64()),
                "role": pa.array(group["role"].to_numpy(zero_copy_only=False)[er].astype(np.int8), pa.int8()),
                "node_id": pa.array(nids[pos[ok]], pa.int64()),
            }
        )

    resolved = ep.union(ns).groupby("bucket").map_groups(_resolve, batch_format="pyarrow")

    # reassemble buckets of edges: attrs + their two resolved endpoints
    def _attr_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        eid = b["edge_id"].to_numpy()
        return pa.table(
            {
                "bucket": pa.array(eid % NB, pa.int64()),
                "edge_id": b["edge_id"],
                "kind": pa.array(np.zeros(n, dtype=np.int8)),
                "role": pa.nulls(n, pa.int8()),
                "node_id": pa.nulls(n, pa.int64()),
                "road_id": b["road_id"],
                "seq": b["seq"],
                "length": b["length"],
            }
        )

    def _res_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        eid = b["edge_id"].to_numpy()
        return pa.table(
            {
                "bucket": pa.array(eid % NB, pa.int64()),
                "edge_id": b["edge_id"],
                "kind": pa.array(np.ones(n, dtype=np.int8)),
                "role": b["role"],
                "node_id": b["node_id"],
                "road_id": pa.nulls(n, pa.int64()),
                "seq": pa.nulls(n, pa.int32()),
                "length": pa.nulls(n, pa.float64()),
            }
        )

    attrs = segs.map_batches(_attr_side, batch_format="pyarrow")
    rs = resolved.map_batches(_res_side, batch_format="pyarrow")

    def _edges_bucket(group: pa.Table) -> pa.Table:
        kind = group["kind"].to_numpy()
        a = np.nonzero(kind == 0)[0]
        r = np.nonzero(kind == 1)[0]
        if len(a) == 0:
            return EDGE_SCHEMA.empty_table()
        eid = group["edge_id"].to_numpy()
        order = np.argsort(eid[a], kind="stable")
        a = a[order]
        aeid = eid[a]
        u = np.full(len(a), -1, dtype=np.int64)
        v = np.full(len(a), -1, dtype=np.int64)
        if len(r):
            role = group["role"].to_numpy(zero_copy_only=False)[r].astype(np.int8)
            nid = group["node_id"].to_numpy(zero_copy_only=False)[r].astype(np.int64)
            pos = np.searchsorted(aeid, eid[r])
            pos = np.clip(pos, 0, len(aeid) - 1)
            ok = aeid[pos] == eid[r]
            m0 = ok & (role == 0)
            m1 = ok & (role == 1)
            u[pos[m0]] = nid[m0]
            v[pos[m1]] = nid[m1]
        idx = pa.array(a)
        return pa.table(
            {
                "edge_id": group["edge_id"].take(idx),
                "road_id": group["road_id"].take(idx),
                "seq": group["seq"].take(idx),
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "length": group["length"].take(idx),
            }
        )

    edges = attrs.union(rs).groupby("bucket").map_groups(
        _edges_bucket, batch_format="pyarrow"
    )
    return nodes, edges


def graph_feature_strings(nodes, edges):
    """nodes/edges Datasets -> (node_features, edge_features) Datasets
    with one serialized GeoJSON Feature string per row — the engine-side
    half of the graph_to_geojson sink (solaris/vector/graph.py:453-545).

    Edge endpoint coordinates resolve through TWO hash joins against
    the nodes table (bucketed co-shuffles via ``relational.hash_join``)
    instead of a driver-side node dict: a continental road graph never
    materializes on one machine.  Node features sort by node_id and
    edge features by edge_id so output is deterministic at any
    parallelism."""
    import json

    from .relational import hash_join

    def _node_feat(batch: pa.Table) -> pa.Table:
        nid = batch["node_id"].to_numpy(zero_copy_only=False)
        xs = batch["x"].to_numpy(zero_copy_only=False)
        ys = batch["y"].to_numpy(zero_copy_only=False)
        nr = batch["n_refs"].to_numpy(zero_copy_only=False)
        feats = [
            json.dumps(
                {
                    "type": "Feature",
                    "geometry": {"type": "Point",
                                 "coordinates": [float(x), float(y)]},
                    "properties": {"node_id": int(i), "n_refs": int(r)},
                }
            )
            for i, x, y, r in zip(nid, xs, ys, nr)
        ]
        return pa.table(
            {
                "fid": pa.array(nid.astype(np.int64), pa.int64()),
                "feature": pa.array(feats, pa.string()),
            }
        )

    def _u_side(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"u_id": batch["node_id"], "ux": batch["x"], "uy": batch["y"]}
        )

    def _v_side(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"v_id": batch["node_id"], "vx": batch["x"], "vy": batch["y"]}
        )

    withu = hash_join(edges, nodes.map_batches(_u_side, batch_format="pyarrow"),
                      "u", "u_id")
    withuv = hash_join(withu, nodes.map_batches(_v_side, batch_format="pyarrow"),
                       "v", "v_id")

    def _edge_feat(batch: pa.Table) -> pa.Table:
        eid = batch["edge_id"].to_numpy(zero_copy_only=False)
        rid = batch["road_id"].to_numpy(zero_copy_only=False)
        u = batch["u"].to_numpy(zero_copy_only=False)
        v = batch["v"].to_numpy(zero_copy_only=False)
        ln = batch["length"].to_numpy(zero_copy_only=False)
        ux = batch["ux"].to_numpy(zero_copy_only=False)
        uy = batch["uy"].to_numpy(zero_copy_only=False)
        vx = batch["vx"].to_numpy(zero_copy_only=False)
        vy = batch["vy"].to_numpy(zero_copy_only=False)
        feats = [
            json.dumps(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "LineString",
                        "coordinates": [[float(ax), float(ay)],
                                        [float(bx), float(by)]],
                    },
                    "properties": {
                        "edge_id": int(e), "road_id": int(r),
                        "u": int(a), "v": int(b), "length": float(w),
                    },
                }
            )
            for e, r, a, b, w, ax, ay, bx, by in zip(
                eid, rid, u, v, ln, ux, uy, vx, vy)
        ]
        return pa.table(
            {
                "fid": pa.array(eid.astype(np.int64), pa.int64()),
                "feature": pa.array(feats, pa.string()),
            }
        )

    node_feats = nodes.map_batches(
        _node_feat, batch_format="pyarrow").sort("fid")
    edge_feats = withuv.map_batches(
        _edge_feat, batch_format="pyarrow").sort("fid")
    return node_feats, edge_feats


def write_graph_geojson(nodes, edges, out_dir: str):
    """Sharded streaming sink: nodes-*.geojson / edges-*.geojson, one
    FeatureCollection file PER BLOCK, written inside ``map_batches`` —
    no driver materialization of nodes, edges, or features.  Shard
    names key on the block's min feature id (resume-stable).  Returns
    a manifest Dataset (kind, path, n_features)."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    node_feats, edge_feats = graph_feature_strings(nodes, edges)

    def _writer(kind: str):
        def _write(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {"kind": pa.array([], pa.string()),
                     "path": pa.array([], pa.string()),
                     "n_features": pa.array([], pa.int64())}
                )
            fid0 = int(
                np.min(batch["fid"].to_numpy(zero_copy_only=False)))
            path = os.path.join(out_dir, f"{kind}-{fid0:012d}.geojson")
            feats = batch["feature"].to_pylist()
            with open(path, "w") as f:
                f.write('{"type": "FeatureCollection", "features": [')
                f.write(",".join(feats))
                f.write("]}")
            return pa.table(
                {
                    "kind": pa.array([kind], pa.string()),
                    "path": pa.array([path], pa.string()),
                    "n_features": pa.array([len(feats)], pa.int64()),
                }
            )

        return _write

    manifest_n = node_feats.map_batches(_writer("nodes"), batch_format="pyarrow")
    manifest_e = edge_feats.map_batches(_writer("edges"), batch_format="pyarrow")
    return manifest_n.union(manifest_e)


def graph_to_geojson(nodes, edges) -> tuple[str, str]:
    """nodes/edges Datasets -> (nodes_geojson, edges_geojson) strings —
    API-parity convenience over ``graph_feature_strings``.  Coordinate
    resolution and feature serialization run engine-side (hash joins +
    per-block kernels); only the OUTPUT feature strings stream to the
    driver (unavoidable for a single-string return — use
    ``write_graph_geojson`` for the sharded at-scale sink)."""
    node_feats, edge_feats = graph_feature_strings(nodes, edges)

    def _collect(ds) -> str:
        parts = []
        for b in ds.select_columns(["feature"]).iter_batches(
                batch_format="pyarrow"):
            parts.extend(b["feature"].to_pylist())
        return '{"type": "FeatureCollection", "features": [' + \
            ",".join(parts) + "]}"

    return _collect(node_feats), _collect(edge_feats)
