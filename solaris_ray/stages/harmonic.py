"""Sampled-source harmonic centrality over an edge table.

``H(v) = Σ_{s ∈ sources, d(s,v) > 0} 1/d(s,v)`` — the
Eppstein–Wang-style sampled estimator of harmonic centrality (the
centrality that stays well-defined on disconnected graphs).  Scores
are emitted in exact integer micro-units (``1_000_000 // d`` per
source) so the SQL twin reproduces them bit-for-bit.

Two plans, the ``sssp.sssp_dist`` idiom (small graphs in one task,
large ones in frontier rounds):

- Edges that fit one block (``_buckets.byte_blocks``): one
  ``co_shuffle`` bucket builds a CSR once (``sssp._csr``, unit
  weights) and runs all k source sweeps over it with the relaxation of
  ``sssp_dist``'s single-task plan (``sssp._relax``); the caller never
  holds the graph.
- Larger graphs: k ``bfs_hops`` runs (``sssp_dist`` over unit
  weights, whose scale-safe two-co-shuffle rounds take over by the
  same bytes rule), each emitting (node, 1, 1_000_000 // hops) rows,
  unioned into one ``distinct_reduce`` sum per node.  State per run is
  O(nodes) id-only rows; total work is k sweeps — the standard price of sampled
  centrality (pick k ≪ n; the estimator's error is O(1/√k)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import byte_blocks, co_shuffle, distinct_reduce
from .sssp import _INF, _csr, _relax

_MICRO = 1_000_000
_OUT = pa.schema([("node", pa.int64()), ("n_reached", pa.int64()), ("h_micro", pa.int64())])


def harmonic_centrality(edges, sources: list[int],
                        src_col: str = "src", dst_col: str = "dst"):
    """-> (node, n_reached, h_micro): for every node reached by at
    least one sampled source, the number of sources reaching it and
    the exact micro-unit harmonic mass Σ 1_000_000 // d."""
    import ray.data

    from .bfs import bfs_hops

    sources = sorted(int(s) for s in sources)
    if not sources:
        raise ValueError("harmonic_centrality: no sources")

    edges = edges.materialize()
    if edges.count() == 0:  # no node is reached; metadata-only
        return ray.data.from_arrow(_OUT.empty_table())
    if byte_blocks(edges) <= 1:
        return co_shuffle(edges, src_col, lambda e: _sweeps(e, sources, src_col, dst_col), 1)

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
    return distinct_reduce(u, ["node"], {"n_reached": "sum", "h_micro": "sum"})


def _micro_rows(b: pa.Table) -> pa.Table:
    h = b["hops"].to_numpy(zero_copy_only=False).astype(np.int64)
    nd = b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = h > 0  # the source itself contributes nothing
    return pa.table({
        "node": pa.array(nd[m], pa.int64()),
        "n_reached": pa.array(np.ones(int(m.sum()), np.int64)),
        "h_micro": pa.array(_MICRO // h[m], pa.int64()),
    })


def _sweeps(edges: pa.Table, sources, src_col, dst_col) -> pa.Table:
    """Small-graph plan, one ``co_shuffle`` bucket: one CSR, k sweeps."""
    src = edges[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = edges[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
    uniq, indptr, adj, aw, sdi = _csr(
        src, dst, np.ones(src.size, np.int64), np.asarray(sources, np.int64)
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
