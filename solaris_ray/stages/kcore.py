"""Distributed k-core decomposition (membership + in-core degree).

The density backbone of a graph: the k-core is the maximal subgraph
where every node keeps >= k neighbours INSIDE the subgraph — the
standard spam/bot-farm and link-quality filter for crawl graphs, and
the robustness layer of road networks (reference builds road graphs
in /root/reference/solaris/vector/graph.py; this is an analytics pass
over them).

Computed by synchronous peeling (Matula–Beck): repeatedly delete every
node whose current degree is < k, until none is.  Deletion order never
changes the fixed point, so the synchronous variant is deterministic
and equals the sequential algorithm's result — and a SQL twin exists
(one generated CTE level per peel round).

Input edges are DIRECTED rows; the kernel symmetrizes and dedupes
internally (degree = distinct undirected neighbours, self-loops
dropped).  Two physical plans (the bfs.py idiom):

- small graphs: ONE remote task, CSR + vectorized alive-mask peeling
  (a peel loop at 45k edges is milliseconds of work — never worth
  per-round Ray barriers);
- large graphs: per round TWO bucketed co-shuffles of id-only int64
  rows — (1) groupby(src bucket): per-src degree is a segment count,
  under-k srcs become this round's removal set (complete, because the
  edge set is symmetrized) and their rows die in place; (2)
  groupby(dst bucket): removal markers meet surviving edges and kill
  the dst side.  Edge volume only ever shrinks; rounds = peel depth
  (O(1) on dense cores; pathological path graphs peel O(n) — the
  documented worst case of every synchronous peeler).

Partitioning assumption: non-negative int64 node ids (dst = -1 marks
removal rows in shuffle 2).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import bucket_of, shuffle_width

_OUT = pa.schema([("node", pa.int64()), ("deg", pa.int64())])


def _kcore_single_task(edge_side, k: int):
    import ray

    @ray.remote
    def _peel(*blocks):
        ebs = [b for b in blocks if b.num_rows]
        if not ebs:
            return _OUT.empty_table()
        src = np.concatenate(
            [b["k"].to_numpy(zero_copy_only=False) for b in ebs]
        )
        dst = np.concatenate(
            [b["dst"].to_numpy(zero_copy_only=False) for b in ebs]
        )
        uniq, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
        si, di = inv[: src.size], inv[src.size :]
        n = uniq.size
        alive = np.ones(n, bool)
        while True:
            m = alive[si] & alive[di]
            deg = np.bincount(si[m], minlength=n)
            drop = alive & (deg < k)
            if not drop.any():
                break
            alive[drop] = False
        m = alive[si] & alive[di]
        deg = np.bincount(si[m], minlength=n)
        keep = alive & (deg > 0)
        return pa.table(
            {
                "node": pa.array(uniq[keep], pa.int64()),
                "deg": pa.array(deg[keep].astype(np.int64), pa.int64()),
            }
        )

    import ray.data

    refs = edge_side.to_arrow_refs()
    return ray.data.from_arrow_refs([_peel.remote(*refs)])


def kcore(
    edges,
    k: int,
    src_col: str = "src",
    dst_col: str = "dst",
    max_rounds: int = 10_000,
    small_edge_limit: int = 2_000_000,
    stats_out: dict | None = None,
):
    """Directed ``edges`` -> (node, deg): every node of the k-core of
    the symmetrized simple graph, with its in-core degree (>= k).
    Empty result when no k-core exists."""
    if k < 1:
        raise ValueError("kcore: k must be >= 1")
    width = shuffle_width(edges)

    def _sym(batch: pa.Table) -> pa.Table:
        s = batch[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if s.size and (s.min() < 0 or d.min() < 0):
            raise ValueError("kcore requires non-negative node ids")
        ok = s != d  # self-loops never count toward degree
        s, d = s[ok], d[ok]
        a = np.concatenate([s, d])
        b = np.concatenate([d, s])
        return pa.table(
            {
                "k": pa.array(a, pa.int64()),
                "dst": pa.array(b, pa.int64()),
                "kb": pa.array(bucket_of(a, width), pa.int64()),
            }
        )

    def _dedupe(group: pa.Table) -> pa.Table:
        # distinct (src, dst) within the src bucket = globally distinct
        s = group["k"].to_numpy(zero_copy_only=False)
        d = group["dst"].to_numpy(zero_copy_only=False)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]
        keep = np.ones(s.size, bool)
        keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        s, d = s[keep], d[keep]
        return pa.table(
            {
                "k": pa.array(s, pa.int64()),
                "dst": pa.array(d, pa.int64()),
                "kb": pa.array(bucket_of(s, width), pa.int64()),
            }
        )

    state = (
        edges.map_batches(_sym, batch_format="pyarrow")
        .groupby("kb")
        .map_groups(_dedupe, batch_format="pyarrow")
        .repartition(width)
        .materialize()
    )

    n_edges = state.count()
    if stats_out is not None:
        stats_out["edges"] = n_edges
    if n_edges == 0:
        import ray.data

        return ray.data.from_arrow(_OUT.empty_table())
    if n_edges <= small_edge_limit:
        if stats_out is not None:
            stats_out["plan"] = "single-task"
        return _kcore_single_task(state, k)
    if stats_out is not None:
        stats_out["plan"] = "peel-rounds"

    def _peel_src(group: pa.Table) -> pa.Table:
        # src-bucket kernel: segment degree per src; under-k srcs emit
        # one removal marker (dst = -1, re-bucketed BY NODE for the dst
        # pass) and their edges die here
        s = group["k"].to_numpy(zero_copy_only=False)
        d = group["dst"].to_numpy(zero_copy_only=False)
        order = np.argsort(s, kind="stable")
        s, d = s[order], d[order]
        new = np.ones(s.size, bool)
        new[1:] = s[1:] != s[:-1]
        starts = np.flatnonzero(new)
        cnt = np.diff(np.append(starts, s.size))
        bad = cnt < k
        badmask = np.repeat(bad, cnt)
        rm = s[starts][bad]
        ks = s[~badmask]
        kd = d[~badmask]
        out_k = np.concatenate([ks, rm])
        out_d = np.concatenate([kd, np.full(rm.size, -1, np.int64)])
        # survivors bucket by DST for the kill pass; markers by node
        out_b = bucket_of(np.where(out_d >= 0, out_d, out_k), width)
        return pa.table(
            {
                "k": pa.array(out_k, pa.int64()),
                "dst": pa.array(out_d, pa.int64()),
                "kb": pa.array(out_b, pa.int64()),
            }
        )

    def _kill_dst(group: pa.Table) -> pa.Table:
        s = group["k"].to_numpy(zero_copy_only=False)
        d = group["dst"].to_numpy(zero_copy_only=False)
        ism = d < 0
        removed = np.unique(s[ism])
        es, ed = s[~ism], d[~ism]
        if removed.size:
            pos = np.searchsorted(removed, ed)
            posc = np.minimum(pos, removed.size - 1)
            hit = removed[posc] == ed
            es, ed = es[~hit], ed[~hit]
        return pa.table(
            {
                "k": pa.array(es, pa.int64()),
                "dst": pa.array(ed, pa.int64()),
                "kb": pa.array(bucket_of(es, width), pa.int64()),
            }
        )

    rounds = 0
    prev_edges = n_edges
    while True:
        if rounds >= max_rounds:
            raise RuntimeError(
                f"kcore: still peeling after max_rounds={max_rounds}"
            )
        rounds += 1
        state = (
            state.groupby("kb")
            .map_groups(_peel_src, batch_format="pyarrow")
            .groupby("kb")
            .map_groups(_kill_dst, batch_format="pyarrow")
            .repartition(width)
            .materialize()
        )
        cur = state.count()  # metadata-only: free convergence check
        if cur == prev_edges:
            break
        prev_edges = cur

    if stats_out is not None:
        stats_out["rounds"] = rounds

    def _deg_partial(batch: pa.Table) -> pa.Table:
        s = batch["k"].to_numpy(zero_copy_only=False)
        uniq, cnt = np.unique(s, return_counts=True)
        return pa.table(
            {
                "node": pa.array(uniq, pa.int64()),
                "deg": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    out = (
        state.map_batches(_deg_partial, batch_format="pyarrow")
        .groupby("node")
        .sum("deg")
    )
    return out.map_batches(
        lambda b: (
            _OUT.empty_table()
            if b.num_rows == 0 or "node" not in b.schema.names
            else pa.table({"node": b["node"], "deg": b["sum(deg)"]})
        ),
        batch_format="pyarrow",
    )
