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

Per round, TWO ``co_shuffle`` passes (the pagerank.py skeleton):
  1. frontier rows + (src, dst, w) edge rows meet on the SOURCE node
     ``k``; a vectorized searchsorted lookup emits one (dst, dist + w)
     candidate per out-edge of a frontier node;
  2. candidates + current label rows meet on the node ``k``; a segment
     min computes the new label and the IMPROVED subset becomes the
     next frontier.
Rounds run until the frontier empties — bounded by the maximum HOP
COUNT of any shortest path, not by total weight.  The edge side is
materialized once (consumed every round — the NOTES round-4d fan-out
rule).  Every shuffle uses one width, ``shuffle_width(edges)``, fixed
before the first round: a width read from the unioned per-round state
would grow with it (the round-4i block-growth lesson).

When the first round's input -- the edge rows plus the seed frontier
rows -- fits one block (``_buckets.byte_blocks``), that one union runs
as ONE ``co_shuffle`` bucket: a single task runs the same
label-correcting loop over CSR with fully vectorized per-round
relaxation (scatter-min via np.minimum.at): a 15-round frontier loop at
45k edges is ~20 s of fixed per-round Ray Data overhead for ~50 ms of
real work.  Both plans are parity-tested bit-identical.

Partitioning assumption (SURVEY custom-operator rule): node ids are
non-negative int64 (dst = -1 marks frontier rows in shuffle 1);
per-round shuffle volume is O(frontier out-degree + |labelled|) rows
of four int64s.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import byte_blocks, co_shuffle, shuffle_width

_INF = np.iinfo(np.int64).max


def _check_overflow(d: np.ndarray, w: np.ndarray) -> None:
    # d, w >= 0, so a sum that wrapped past int64 max comes out below w
    if (d < w).any():
        raise ValueError("sssp_dist: a distance overflows int64")


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


def _single_task(rows: pa.Table) -> pa.Table:
    """Small-graph plan, the one ``co_shuffle`` bucket of the first
    round's union: CSR + ``_relax``.  ``dst = -1`` marks a seed."""
    k = rows["k"].to_numpy(zero_copy_only=False)
    dst = rows["dst"].to_numpy(zero_copy_only=False)
    d = rows["d"].to_numpy(zero_copy_only=False)
    edge = dst >= 0
    uniq, indptr, adj, aw, sdi = _csr(k[edge], dst[edge], d[edge], k[~edge])
    dist = _relax(indptr, adj, aw, sdi)
    hit = dist < _INF
    return pa.table(
        {
            "node": pa.array(uniq[hit], pa.int64()),
            "dist": pa.array(dist[hit], pa.int64()),
        }
    )


def sssp_dist(
    edges,
    seeds,
    src_col: str = "src",
    dst_col: str = "dst",
    w_col: str = "w",
    seed_col: str = "node",
    dist_col: str = "dist",
    max_rounds: int = 256,
    stats_out: dict | None = None,
):
    """Directed weighted ``edges`` + ``seeds`` -> (node, ``dist_col``):
    exact minimum int64 weighted distance from any seed (seeds at 0).
    Unreachable nodes are absent.  Weights must be non-negative int64.

    ``max_rounds`` is a safety valve — raises if the frontier is still
    non-empty when it trips (a partial relaxation must never pass as a
    converged one)."""
    width = shuffle_width(edges)
    out_schema = pa.schema([("node", pa.int64()), (dist_col, pa.int64())])

    def _edge_rows(batch: pa.Table) -> pa.Table:
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
            }
        )

    # coalesced once to the width: every round tags and repartitions
    # the whole edge side again, so its block count is a per-round cost
    edge_side = (
        edges.map_batches(_edge_rows, batch_format="pyarrow")
        .repartition(width)
        .materialize()
    )

    def _frontier(k: pa.Array, d: pa.Array) -> pa.Table:
        return pa.table({"k": k, "dst": pa.array(np.full(len(k), -1, np.int64)), "d": d})

    def _seed_rows(batch: pa.Table) -> pa.Table:
        n = batch[seed_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if n.size and n.min() < 0:
            raise ValueError("sssp_dist requires non-negative node ids")
        return _frontier(pa.array(n, pa.int64()), pa.array(np.zeros(n.size, np.int64)))

    # the seeds are the first round's frontier, at distance 0
    front = seeds.map_batches(_seed_rows, batch_format="pyarrow").materialize()
    # the first round's union, sized at the edges' DataContext
    first = edge_side.union(front)
    single = byte_blocks(first) <= 1
    if stats_out is not None:
        stats_out["edges"] = edge_side.count()
        stats_out["plan"] = "single-task" if single else "frontier-rounds"
    if front.count() == 0:  # no seeds; metadata-only on a materialized ds
        import ray.data

        return ray.data.from_arrow(out_schema.empty_table())
    if single:
        return co_shuffle(
            first, "k", lambda t: _single_task(t).rename_columns(out_schema.names), 1)

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
            }
        )

    def _to_frontier_rows(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["f"], 1))
        return _frontier(t["k"], t["d"])

    def _labels_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["f"], 0))

    # every seed enters as a settled label (f=0) at distance 0
    labels = front.map_batches(
        lambda b: pa.table({"k": b["k"], "d": b["d"],
                            "f": pa.array(np.zeros(b.num_rows, np.int64))}),
        batch_format="pyarrow",
    )
    rounds = 0
    while front.count():  # metadata-only on a materialized ds
        if rounds >= max_rounds:
            raise RuntimeError(
                f"sssp_dist: frontier still non-empty after "
                f"max_rounds={max_rounds}"
            )
        rounds += 1
        cands = co_shuffle(front.union(edge_side), "k", _expand, width)
        state = co_shuffle(cands.union(labels), "k", _combine, width).materialize()
        labels = state.map_batches(_labels_only, batch_format="pyarrow")
        front = state.map_batches(_to_frontier_rows, batch_format="pyarrow").materialize()

    if stats_out is not None:
        stats_out["rounds"] = rounds

    def _out(batch: pa.Table) -> pa.Table:
        t = _labels_only(batch)
        if t.num_rows == 0:
            return out_schema.empty_table()
        return pa.table({"node": t["k"], dist_col: t["d"]})

    return state.map_batches(_out, batch_format="pyarrow")
