"""Sampled-source harmonic centrality over an edge table.

``H(v) = Σ_{s ∈ sources, d(s,v) > 0} 1/d(s,v)`` — the
Eppstein–Wang-style sampled estimator of harmonic centrality (the
centrality that stays well-defined on disconnected graphs).  Scores
are emitted in exact integer micro-units (``1_000_000 // d`` per
source) so the SQL twin reproduces them bit-for-bit.

Two plans, the ``sssp.sssp_dist`` idiom (small graphs in one task,
large ones in frontier rounds):

- Small graphs (``<= small_edge_limit`` edges): ONE remote task builds
  a CSR once (``sssp._csr``, unit weights) and runs all k source
  sweeps over it with the relaxation of ``sssp_dist``'s single-task
  plan (``sssp._relax``); the caller never holds the graph.
- Larger graphs: k ``bfs_hops`` runs (``sssp_dist`` over unit
  weights, whose scale-safe two-co-shuffle rounds take over above
  its own edge limit), each tagged with its source and unioned into
  one (node)-keyed aggregate.  State per run is O(nodes)
  id-only rows; total work is k sweeps — the standard price of sampled
  centrality (pick k ≪ n; the estimator's error is O(1/√k)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .sssp import _INF, _concat, _csr, _relax

_MICRO = 1_000_000


def harmonic_centrality(edges, sources: list[int],
                        src_col: str = "src", dst_col: str = "dst",
                        small_edge_limit: int = 500_000):
    """-> (node, n_reached, h_micro): for every node reached by at
    least one sampled source, the number of sources reaching it and
    the exact micro-unit harmonic mass Σ 1_000_000 // d."""
    import ray
    import ray.data

    from ray.data.aggregate import Sum

    from .bfs import bfs_hops

    sources = sorted(int(s) for s in sources)
    if not sources:
        raise ValueError("harmonic_centrality: no sources")

    edges = edges.materialize()
    if edges.count() <= small_edge_limit:
        return _single_task(edges, sources, src_col, dst_col)

    per_src = []
    for s in sources:
        seed = ray.data.from_arrow(
            pa.table({"node": pa.array([s], pa.int64())}))
        hops = bfs_hops(edges, seed, src_col=src_col, dst_col=dst_col)
        per_src.append(hops.map_batches(
            lambda b: _micro_rows(b), batch_format="pyarrow"))
    u = per_src[0]
    for d in per_src[1:]:
        u = u.union(d)
    agg = u.groupby("node").aggregate(Sum("r"), Sum("h"))
    return agg.map_batches(
        lambda b: pa.table({
            "node": b["node"],
            "n_reached": pa.array(
                b["sum(r)"].to_numpy(zero_copy_only=False).astype(np.int64)),
            "h_micro": pa.array(
                b["sum(h)"].to_numpy(zero_copy_only=False).astype(np.int64)),
        }),
        batch_format="pyarrow",
    )


def _micro_rows(b: pa.Table) -> pa.Table:
    h = b["hops"].to_numpy(zero_copy_only=False).astype(np.int64)
    nd = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = h > 0  # the source itself contributes nothing
    return pa.table({
        "node": pa.array(nd[m], pa.int64()),
        "r": pa.array(np.ones(int(m.sum()), np.int64)),
        "h": pa.array(_MICRO // h[m], pa.int64()),
    })


def _single_task(edges, sources, src_col, dst_col):
    import ray
    import ray.data

    @ray.remote
    def _sweeps(srcs, *blocks):
        eb = [b for b in blocks if b.num_rows]
        src, dst = _concat(eb, src_col), _concat(eb, dst_col)
        uniq, indptr, adj, aw, sdi = _csr(
            src, dst, np.ones(src.size, np.int64), np.asarray(srcs, np.int64)
        )
        reached = np.zeros(uniq.size, np.int64)
        harm = np.zeros(uniq.size, np.int64)
        for s0 in sdi:
            dist = _relax(indptr, adj, aw, np.array([s0]))
            hit = (dist > 0) & (dist < _INF)
            reached[hit] += 1
            harm[hit] += _MICRO // dist[hit]
        out = reached > 0
        return pa.table({
            "node": pa.array(uniq[out], pa.int64()),
            "n_reached": pa.array(reached[out], pa.int64()),
            "h_micro": pa.array(harm[out], pa.int64()),
        })

    refs = edges.to_arrow_refs()
    return ray.data.from_arrow_refs([_sweeps.remote(sources, *refs)])
