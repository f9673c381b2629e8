"""Distributed PageRank — integer micro-unit power iteration.

Link-graph importance for corpus curation (site-level quality priors,
crawl frontier ordering) needs PageRank over the document/link graph;
the reference has no graph analytics.  This is the classic damped
power iteration (Page et al., 1999) run for a FIXED number of rounds
entirely in int64 "micro-unit" arithmetic so that every per-node sum
is order-free and the result is bit-reproducible across any block
order, worker count, or SQL engine:

    r_0[v]   = scale                       (total mass ~ N * scale)
    c(u->v)  = r[u] // outdeg(u)           (floor division)
    r_t+1[v] = teleport + (damp_num * sum_in(v)) // damp_den
    teleport = (scale * (damp_den - damp_num)) // damp_den

Dangling nodes (outdeg 0) simply contribute nothing — the standard
mass-leak simplification; their own rank still receives teleport plus
in-links.

Per round: TWO ``co_shuffle`` passes of id-only int64 rows, both at
the width computed once from the input (a width read from the unioned
per-round state would grow with it, NOTES round 4i).
  1. rank rows + (src, dst, outdeg) edge rows meet on the SOURCE node
     ``k``; a vectorized searchsorted lookup emits one (dst,
     contribution) row per edge plus one zero-valued anchor row per
     rank node (so nodes with no in-links survive with pure teleport —
     no third node-list shuffle needed);
  2. contributions meet on ``dst``: a segment sum applies the damping
     recurrence.
Out-degrees are computed INSIDE the initial edge shuffle on ``k`` (all
rows of a source land in its bucket), so the degree-annotated edge
table costs one shuffle and is materialized ONCE — it is consumed by
every round, and the repo's fan-out rule (NOTES round-4d) says small
id-only rows at a multi-consumer point must be materialized, not
lazily re-derived.

Partitioning assumption (SURVEY custom-operator rule): node ids are
non-negative int64 (the ``dst = -1`` rank-row marker relies on it) and
``damp_num * N * scale`` must stay below 2^63 — at the default
scale=1e9 that allows ~10^8 nodes; a 10^12-node deployment would drop
scale to 1e6 (still 6 significant digits of rank).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, shuffle_width


def pagerank(
    edges,
    src_col: str = "src",
    dst_col: str = "dst",
    iters: int = 5,
    scale: int = 10**9,
    damp_num: int = 85,
    damp_den: int = 100,
):
    """Directed ``edges`` dataset -> (node, pr_micro) after ``iters``
    exact-integer damped power-iteration rounds.

    The node set is derived from the edges (src union dst, distinct);
    isolated nodes — in neither column — are out of the graph by
    definition.  Duplicate edges are kept (parallel edges weigh
    double), matching the plain adjacency-matrix formulation.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    width = shuffle_width(edges)
    teleport = (scale * (damp_den - damp_num)) // damp_den

    rank_schema = pa.schema([("node", pa.int64()), ("pr_micro", pa.int64())])

    def _src_rows(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if s.size and (s.min() < 0 or d.min() < 0):
            raise ValueError("pagerank requires non-negative node ids")
        # dst-side sentinel rows (g = -1) ride the same shuffle so the
        # node set falls out of this one pass too
        k = np.concatenate([s, d])
        dst = np.concatenate([d, np.full(d.size, -1, np.int64)])
        g = np.concatenate(
            [np.zeros(s.size, np.int64), np.full(d.size, -1, np.int64)]
        )
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "g": pa.array(g, pa.int64()),
                "r": pa.array(np.zeros(k.size, np.int64)),
            }
        )

    def _degree(group: pa.Table) -> pa.Table:
        # per bucket: outdeg per source from the edge rows (g == 0),
        # node inventory from both row kinds; emit degree-annotated
        # edge rows plus one (k, dst=-1, g=0) node row per distinct id
        k = group["k"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        g = group["g"].to_numpy(zero_copy_only=False)
        is_edge = g == 0
        ek, ed = k[is_edge], dst[is_edge]
        order = np.argsort(ek, kind="stable")
        ek, ed = ek[order], ed[order]
        new = np.ones(ek.size, bool)
        new[1:] = ek[1:] != ek[:-1]
        seg = np.cumsum(new) - 1
        counts = np.bincount(seg) if ek.size else np.zeros(0, np.int64)
        deg = counts[seg].astype(np.int64) if ek.size else ek
        nodes = np.unique(k)
        out_k = np.concatenate([ek, nodes])
        out_dst = np.concatenate([ed, np.full(nodes.size, -1, np.int64)])
        out_g = np.concatenate([deg, np.zeros(nodes.size, np.int64)])
        return pa.table(
            {
                "k": pa.array(out_k, pa.int64()),
                "dst": pa.array(out_dst, pa.int64()),
                "g": pa.array(out_g, pa.int64()),
                "r": pa.array(np.zeros(out_k.size, np.int64)),
            }
        )

    # one shuffle: degree-annotated edges + distinct node rows.
    # Materialized: consumed per round.
    src_rows = edges.map_batches(_src_rows, batch_format="pyarrow")
    base = co_shuffle(src_rows, "k", _degree, width).materialize()
    if base.count() == 0:  # no edges; metadata-only on a materialized ds
        import ray.data

        return ray.data.from_arrow(rank_schema.empty_table())

    def _split(batch: pa.Table):
        return batch["dst"].to_numpy(zero_copy_only=False) >= 0

    def _edge_rows(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(_split(batch)))

    def _node_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(pa.array(~_split(batch)))
        return pa.table(
            {
                "k": t["k"],
                "dst": t["dst"],
                "g": t["g"],
                "r": pa.array(np.full(t.num_rows, scale, np.int64)),
            }
        )

    edge_side = base.map_batches(_edge_rows, batch_format="pyarrow").materialize()
    ranks = base.map_batches(_node_rows, batch_format="pyarrow")

    def _contrib(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        g = group["g"].to_numpy(zero_copy_only=False)
        r = group["r"].to_numpy(zero_copy_only=False)
        is_rank = dst < 0
        rk, rr = k[is_rank], r[is_rank]
        order = np.argsort(rk, kind="stable")
        rk, rr = rk[order], rr[order]
        ek, ed, eg = k[~is_rank], dst[~is_rank], g[~is_rank]
        if ek.size:
            pos = np.searchsorted(rk, ek)
            if rk.size == 0 or not np.array_equal(rk[np.minimum(pos, rk.size - 1)], ek):
                raise ValueError("edge source missing from rank rows")
            c = rr[pos] // eg
        else:
            c = ek
        out_dst = np.concatenate([ed, rk])  # zero anchors keep every node
        out_c = np.concatenate([c, np.zeros(rk.size, np.int64)])
        return pa.table(
            {
                "dst": pa.array(out_dst, pa.int64()),
                "c": pa.array(out_c, pa.int64()),
            }
        )

    def _apply(group: pa.Table) -> pa.Table:
        dst = group["dst"].to_numpy(zero_copy_only=False)
        c = group["c"].to_numpy(zero_copy_only=False)
        order = np.argsort(dst, kind="stable")
        dst, c = dst[order], c[order]
        new = np.ones(dst.size, bool)
        new[1:] = dst[1:] != dst[:-1]
        starts = np.flatnonzero(new)
        sums = np.add.reduceat(c, starts) if dst.size else c
        nodes = dst[starts]
        r_new = teleport + (damp_num * sums) // damp_den
        return pa.table(
            {
                "k": pa.array(nodes, pa.int64()),
                "dst": pa.array(np.full(nodes.size, -1, np.int64)),
                "g": pa.array(np.zeros(nodes.size, np.int64)),
                "r": pa.array(r_new, pa.int64()),
            }
        )

    for _ in range(iters):
        # materialize per round (components.py precedent); each
        # co_shuffle repartitions its union to ``width``, so every
        # round's two sort-shuffles stay constant-cost
        contribs = co_shuffle(ranks.union(edge_side), "k", _contrib, width)
        ranks = co_shuffle(contribs, "dst", _apply, width).materialize()

    def _out(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return rank_schema.empty_table()
        return pa.table({"node": batch["k"], "pr_micro": batch["r"]})

    return ranks.map_batches(_out, batch_format="pyarrow")
