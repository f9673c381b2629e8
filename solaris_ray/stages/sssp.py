"""Distributed weighted single-source(-set) shortest paths.

Edge rows carry a non-negative int64 weight, and the answer is the
exact minimum WEIGHTED distance from any seed (the reference's road
graphs, built in solaris/vector/graph.py, are weighted by segment
length; "minutes to nearest depot" is this primitive).  It is
also the one frontier engine behind ``bfs.bfs_hops``, which runs it
over unit weights ("blocks to nearest depot").

Algorithm: frontier-synchronous label-correcting relaxation
(Bellman-Ford with a frontier; the synchronous special case of
delta-stepping with one bucket).  All state rows are id-only int64
(node, dist) and the per-node merge is min() — order-free, so results
are bit-reproducible at any parallelism and hash-identical to a SQL
recursive-CTE twin.  Weights must be >= 0 (raise on negative: with a
frontier the label-correcting loop would still converge for negative
edges without negative cycles, but termination would no longer be
bounded by the hop length of shortest paths — refuse rather than
maybe-spin).  A relaxed distance that overflows int64 raises too.

Per round, TWO bucketed co-shuffles (the pagerank.py skeleton):
  1. frontier rows + (src, dst, w) edge rows meet in ``groupby``
     (bucket of the SOURCE node); a vectorized searchsorted lookup
     emits one (dst, dist + w) candidate per out-edge of a frontier
     node;
  2. candidates + current label rows meet in ``groupby`` (bucket of
     the node); a segment min computes the new label and the IMPROVED
     subset becomes the next frontier.
Rounds run until the frontier empties — bounded by the maximum HOP
COUNT of any shortest path, not by total weight.  The edge side is
tagged and materialized once (consumed every round — the NOTES
round-4d fan-out rule).  Every bucket key and every repartition uses
one width, ``shuffle_width(edges)``, fixed before the first round:
state is repartitioned to it per round (the round-4i block-growth
lesson), and a width read from the unioned per-round state would grow
with it.

Small graphs route to ONE remote task running the same
label-correcting loop over CSR with fully vectorized per-round
relaxation (scatter-min via np.minimum.at): a 15-round frontier loop
at 45k edges is ~20 s of fixed per-round Ray Data overhead for ~50 ms
of real work.  Both plans are parity-tested bit-identical.

Partitioning assumption (SURVEY custom-operator rule): node ids are
non-negative int64 (dst = -1 marks frontier rows in shuffle 1);
per-round shuffle volume is O(frontier out-degree + |labelled|) rows
of four int64s.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import bucket_of, shuffle_width

_OUT_SCHEMA = pa.schema([("node", pa.int64()), ("dist", pa.int64())])
_INF = np.iinfo(np.int64).max


def _check_overflow(d: np.ndarray, w: np.ndarray) -> None:
    # d, w >= 0, so a sum that wrapped past int64 max comes out below w
    if (d < w).any():
        raise ValueError("sssp_dist: a distance overflows int64")


def _concat(tabs, col) -> np.ndarray:
    """int64 concatenation of column ``col`` over arrow ``tabs``."""
    if not tabs:
        return np.empty(0, np.int64)
    return np.concatenate(
        [t[col].to_numpy(zero_copy_only=False) for t in tabs]
    ).astype(np.int64)


def _csr(src, dst, w, seeds):
    """Compact ids -> (ids, indptr, adj, adj_w, seed_idx) over CSR."""
    uniq, inv = np.unique(np.concatenate([src, dst, seeds]), return_inverse=True)
    si = inv[: src.size]
    order = np.argsort(si, kind="stable")
    indptr = np.zeros(uniq.size + 1, np.int64)
    np.cumsum(np.bincount(si, minlength=uniq.size), out=indptr[1:])
    adj = inv[src.size : src.size + dst.size][order]
    return uniq, indptr, adj, w[order], inv[src.size + dst.size :]


def _relax(indptr, adj, aw, seed_idx):
    """Frontier rounds of vectorized scatter-min relaxation over CSR ->
    dist per compact id (``_INF`` = unreached)."""
    dist = np.full(indptr.size - 1, _INF, np.int64)
    frontier = np.unique(seed_idx)
    dist[frontier] = 0
    while frontier.size:
        starts = indptr[frontier]
        deg = indptr[frontier + 1] - starts
        tot = int(deg.sum())
        if tot == 0:
            break
        idx = np.repeat(
            starts - np.concatenate(([0], np.cumsum(deg)[:-1])), deg
        ) + np.arange(tot)
        cand_d = np.repeat(dist[frontier], deg) + aw[idx]
        _check_overflow(cand_d, aw[idx])
        best = np.full(dist.size, _INF, np.int64)
        np.minimum.at(best, adj[idx], cand_d)
        frontier = np.flatnonzero(best < dist)
        dist[frontier] = best[frontier]
    return dist


def _sssp_single_task(edge_side, state):
    """Small-graph plan: one remote task, CSR + ``_relax``.  Blocks
    travel as object-store refs; the caller never holds the graph."""
    import ray
    import ray.data

    @ray.remote
    def _sssp(n_edge_blocks, *blocks):
        eb = [b for b in blocks[:n_edge_blocks] if "dst" in b.schema.names]
        sb = [b for b in blocks[n_edge_blocks:] if "k" in b.schema.names]
        src, dst, w = _concat(eb, "k"), _concat(eb, "dst"), _concat(eb, "d")
        uniq, indptr, adj, aw, sdi = _csr(src, dst, w, _concat(sb, "k"))
        dist = _relax(indptr, adj, aw, sdi)
        hit = dist < _INF
        return pa.table(
            {
                "node": pa.array(uniq[hit], pa.int64()),
                "dist": pa.array(dist[hit], pa.int64()),
            }
        )

    e_refs = edge_side.to_arrow_refs()
    s_refs = state.to_arrow_refs()
    ref = _sssp.remote(len(e_refs), *e_refs, *s_refs)
    return ray.data.from_arrow_refs([ref])


def sssp_dist(
    edges,
    seeds,
    src_col: str = "src",
    dst_col: str = "dst",
    w_col: str = "w",
    seed_col: str = "node",
    max_rounds: int = 256,
    small_edge_limit: int = 500_000,
    stats_out: dict | None = None,
):
    """Directed weighted ``edges`` + ``seeds`` -> (node, dist): exact
    minimum int64 weighted distance from any seed (seeds at 0).
    Unreachable nodes are absent.  Weights must be non-negative int64.

    ``max_rounds`` is a safety valve — raises if the frontier is still
    non-empty when it trips (a partial relaxation must never pass as a
    converged one)."""
    width = shuffle_width(edges)

    def _tag_edges(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[w_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if s.size and (s.min() < 0 or d.min() < 0):
            raise ValueError("sssp_dist requires non-negative node ids")
        if w.size and w.min() < 0:
            raise ValueError("sssp_dist requires non-negative weights")
        return pa.table(
            {
                "k": pa.array(s, pa.int64()),
                "dst": pa.array(d, pa.int64()),
                "d": pa.array(w, pa.int64()),  # edge rows: d carries w
                "kb": pa.array(bucket_of(s, width), pa.int64()),
            }
        )

    edge_side = (
        edges.map_batches(_tag_edges, batch_format="pyarrow")
        .repartition(width)
        .materialize()
    )

    def _tag_seeds(batch: pa.Table) -> pa.Table:
        n = batch[seed_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if n.size and n.min() < 0:
            raise ValueError("sssp_dist requires non-negative node ids")
        # each seed enters as a settled label (f=0) and a frontier row (f=1)
        k2 = np.concatenate([n, n])
        return pa.table(
            {
                "k": pa.array(k2, pa.int64()),
                "d": pa.array(np.zeros(k2.size, np.int64)),
                "f": pa.array(np.repeat(np.array([0, 1], np.int64), n.size)),
                "kb": pa.array(bucket_of(k2, width), pa.int64()),
            }
        )

    state = (
        seeds.map_batches(_tag_seeds, batch_format="pyarrow")
        .repartition(width)
        .materialize()
    )

    n_edges = edge_side.count()
    if stats_out is not None:
        stats_out["edges"] = n_edges
    if n_edges <= small_edge_limit:
        if stats_out is not None:
            stats_out["plan"] = "single-task"
        return _sssp_single_task(edge_side, state)
    if stats_out is not None:
        stats_out["plan"] = "frontier-rounds"

    def _to_frontier_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["f"], 1))
        return pa.table(
            {
                "k": t["k"],
                "dst": pa.array(np.full(t.num_rows, -1, np.int64)),
                "d": t["d"],
                "kb": t["kb"],
            }
        )

    def _expand(group: pa.Table) -> pa.Table:
        # source-bucket kernel: (dst, dist[src] + w) per out-edge of a
        # frontier node
        k = group["k"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        is_front = dst < 0
        fk, fd = k[is_front], d[is_front]
        order = np.argsort(fk, kind="stable")
        fk, fd = fk[order], fd[order]
        ek, ed, ew = k[~is_front], dst[~is_front], d[~is_front]
        if ek.size and fk.size:
            pos_c = np.minimum(np.searchsorted(fk, ek), fk.size - 1)
            hit = fk[pos_c] == ek
            out_n = ed[hit]
            out_d = fd[pos_c[hit]] + ew[hit]
            _check_overflow(out_d, ew[hit])
        else:
            out_n = np.zeros(0, np.int64)
            out_d = np.zeros(0, np.int64)
        return pa.table(
            {
                "k": pa.array(out_n, pa.int64()),
                "d": pa.array(out_d, pa.int64()),
                "f": pa.array(np.ones(out_n.size, np.int64)),
                "kb": pa.array(bucket_of(out_n, width), pa.int64()),
            }
        )

    def _combine(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        f = group["f"].to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, d, f = k[order], d[order], f[order]
        new = np.ones(k.size, bool)
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        mind = np.minimum.reduceat(d, starts)
        old = np.full(starts.size, _INF, np.int64)
        lab = f == 0
        old[seg[lab]] = d[lab]
        nodes = k[starts]
        improved = mind < old
        out_k = np.concatenate([nodes, nodes[improved]])
        out_d = np.concatenate([mind, mind[improved]])
        # every node keeps its label row; improved ones re-enter the frontier
        out_f = np.repeat(
            np.array([0, 1], np.int64), [nodes.size, int(improved.sum())]
        )
        return pa.table(
            {
                "k": pa.array(out_k, pa.int64()),
                "d": pa.array(out_d, pa.int64()),
                "f": pa.array(out_f, pa.int64()),
                "kb": pa.array(bucket_of(out_k, width), pa.int64()),
            }
        )

    def _labels_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["f"], 0))

    rounds = 0
    while True:
        front = state.map_batches(
            _to_frontier_rows, batch_format="pyarrow"
        ).materialize()
        if front.count() == 0:  # metadata-only on a materialized ds
            break
        if rounds >= max_rounds:
            raise RuntimeError(
                f"sssp_dist: frontier still non-empty after "
                f"max_rounds={max_rounds}"
            )
        rounds += 1
        cands = (
            front.union(edge_side)
            .groupby("kb")
            .map_groups(_expand, batch_format="pyarrow")
        )
        state = (
            cands.union(state.map_batches(_labels_only, batch_format="pyarrow"))
            .groupby("kb")
            .map_groups(_combine, batch_format="pyarrow")
            .repartition(width)
            .materialize()
        )

    if stats_out is not None:
        stats_out["rounds"] = rounds
    if state.count() == 0:  # no seeds; metadata-only on a materialized ds
        import ray.data

        return ray.data.from_arrow(_OUT_SCHEMA.empty_table())

    def _out(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["f"], 0))
        if t.num_rows == 0:
            return _OUT_SCHEMA.empty_table()
        return pa.table({"node": t["k"], "dist": t["d"]})

    return state.map_batches(_out, batch_format="pyarrow")
