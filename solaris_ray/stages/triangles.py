"""Distributed triangle counting — degree-ordered node-iterator.

Graph-shaped corpus analysis (dedup-cluster audit, link-graph spam
metrics) needs triangle counts; the reference has no graph analytics.
This is the MapReduce-classic algorithm (Suri & Vassilvitskii, WWW'11):
orient every edge from its lower (degree, id) endpoint to the higher,
emit each low-endpoint's out-neighbor pairs as wedges, and close
wedges against the canonical edge set.  Degree ordering bounds
per-node wedge work by arboricity (out-degree <= O(sqrt(m))), so no
single group explodes even on power-law graphs.

Four ``co_shuffle`` passes of id-only int64 rows, all at the width
computed once from the input (plus the final per-node count):
  1. both endpoint-keyed copies of every edge, on the node ``k`` —
     degrees are computed INSIDE this shuffle (all rows of a node land
     in its bucket), no separate degree pass or degree-attach joins;
  2. the two halves merge on the pair ``["a", "b"]`` -> (edge, deg_a,
     deg_b), orient;
  3. wedge generation on ``src`` (per-node pair expansion inside a
     vectorized bucket kernel);
  4. wedge-close against the canonical edge set on the pair
     ``["u", "v"]``, emitting the three triangle-corner node ids.

Partitioning assumption (documented per SURVEY custom-operator rule):
node ids are >= 0 and fit 32 bits for the packed (u, v) bucket-local
match key of the close pass.  Input edges must be canonical (a < b)
and distinct.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, distinct_reduce, shuffle_width


def triangle_counts(edges, a_col: str = "a", b_col: str = "b"):
    """edges (a < b, distinct) -> (node, tri_cnt) for every node in at
    least one triangle."""
    width = shuffle_width(edges)

    dual_schema = pa.schema(
        [("k", pa.int64()), ("peer", pa.int64()), ("side", pa.int64())]
    )

    def _dual(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False)
        b = batch[b_col].to_numpy(zero_copy_only=False)
        if a.size == 0:
            return dual_schema.empty_table()
        k = np.concatenate([a, b])
        peer = np.concatenate([b, a])
        side = np.concatenate(
            [np.zeros(a.size, np.int64), np.ones(b.size, np.int64)]
        )
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "peer": pa.array(peer, pa.int64()),
                "side": pa.array(side, pa.int64()),
            }
        )

    def _deg_attach(group: pa.Table) -> pa.Table:
        # every row incident to node k is in k's bucket: degree = count
        k = group["k"].to_numpy(zero_copy_only=False)
        peer = group["peer"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        uniq, inv, cnt = np.unique(k, return_inverse=True, return_counts=True)
        degk = cnt[inv].astype(np.int64)
        a = np.where(side == 0, k, peer)
        b = np.where(side == 0, peer, k)
        return pa.table(
            {
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "side": pa.array(side, pa.int64()),
                "degk": pa.array(degk, pa.int64()),
            }
        )

    def _orient(group: pa.Table) -> pa.Table:
        a = group["a"].to_numpy(zero_copy_only=False)
        b = group["b"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        degk = group["degk"].to_numpy(zero_copy_only=False)
        # pair the two halves of each edge: sort by (a, b, side) —
        # consecutive rows are side 0 (deg of a) then side 1 (deg of b)
        o = np.lexsort((side, b, a))
        a, b, side, degk = a[o], b[o], side[o], degk[o]
        da, db = degk[0::2], degk[1::2]
        ea, eb = a[0::2], b[0::2]
        a_low = (da < db) | ((da == db) & (ea < eb))
        src = np.where(a_low, ea, eb)
        dst = np.where(a_low, eb, ea)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
            }
        )

    def _wedges(group: pa.Table) -> pa.Table:
        src = group["src"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        o = np.argsort(src, kind="stable")
        src, dst = src[o], dst[o]
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        ends = np.r_[starts[1:], src.size]
        us, vs, ap = [], [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            d = np.sort(dst[s:e])
            ia, ib = np.triu_indices(m, k=1)
            us.append(d[ia]); vs.append(d[ib])
            ap.append(np.full(ia.size, src[s], np.int64))
        # canonical edge rows for the close check ride along from the
        # same stage — no extra pass over the input
        ca = np.minimum(src, dst)
        cb = np.maximum(src, dst)
        if us:
            u = np.concatenate(us + [ca])
            v = np.concatenate(vs + [cb])
            apex = np.concatenate(ap + [np.full(ca.size, -1, np.int64)])
            is_edge = np.concatenate(
                [np.zeros(u.size - ca.size, np.int64), np.ones(ca.size, np.int64)]
            )
        else:
            u, v = ca, cb
            apex = np.full(ca.size, -1, np.int64)
            is_edge = np.ones(ca.size, np.int64)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "apex": pa.array(apex, pa.int64()),
                "is_edge": pa.array(is_edge, pa.int64()),
            }
        )

    tri_schema = pa.schema([("node", pa.int64())])

    def _close(group: pa.Table) -> pa.Table:
        is_e = group["is_edge"].to_numpy(zero_copy_only=False) == 1
        u = group["u"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        key = (u.astype(np.int64) << 32) | v.astype(np.int64)
        ek = np.sort(key[is_e])
        wk = key[~is_e]
        if ek.size == 0 or wk.size == 0:
            return tri_schema.empty_table()
        pos = np.searchsorted(ek, wk)
        pos_c = np.clip(pos, 0, ek.size - 1)
        hit = ek[pos_c] == wk
        apex = group["apex"].to_numpy(zero_copy_only=False)[~is_e][hit]
        uu, vv = u[~is_e][hit], v[~is_e][hit]
        return pa.table(
            {"node": pa.array(np.concatenate([apex, uu, vv]), pa.int64())}
        )

    out_schema = pa.schema([("node", pa.int64()), ("tri_cnt", pa.int64())])

    def _ones(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return pa.table({
            "node": batch["node"],
            "tri_cnt": pa.array(np.ones(batch.num_rows, np.int64)),
        })

    halves = co_shuffle(edges.map_batches(_dual, batch_format="pyarrow"), "k",
                        _deg_attach, width)
    oriented = co_shuffle(halves, ["a", "b"], _orient, width)
    wedges = co_shuffle(oriented, "src", _wedges, width)
    corners = co_shuffle(wedges, ["u", "v"], _close, width)
    # per-node count via the bucketed vectorized sum-reduce (Ray's
    # per-group aggregate costs ~100us CPU per node)
    return distinct_reduce(corners.map_batches(_ones, batch_format="pyarrow"),
                           ["node"], aggs={"tri_cnt": "sum"})
