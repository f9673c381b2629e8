"""Distributed global ranking / percentile normalization.

``global_rank`` assigns every row its 1-based rank under a total order
(sort columns + caller-supplied unique tiebreakers) plus the exact
percentile (rank-1)/(n-1) — the feature-normalization primitive
(score -> percentile) that otherwise tempts a driver-side sort.

Shape: one distributed ``ds.sort`` (range-partitioned shuffle), then
ordered per-block offset enumeration — the graph node-id idiom
(stages/graph.py:dedup_nodes): only per-block ROW COUNTS come to the
driver (one int per block); blocks stay in the object store and are
re-emitted zero-copy with a rank column prepended.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle


def global_rank(ds, sort_cols: list[str], pct: bool = True):
    """Rank all rows by ``sort_cols`` ascending (1-based, dense total
    order — include a unique key in ``sort_cols`` for determinism).

    Appends ``rank`` (int64) and, when ``pct``, ``pct_rank`` (double,
    (rank-1)/(n-1); 0.0 for a single row).
    """
    import ray

    ordered = ds.sort(sort_cols).materialize()
    refs = ordered.to_arrow_refs()

    @ray.remote
    def _nrows(block: pa.Table) -> int:
        return block.num_rows

    @ray.remote
    def _assign(block: pa.Table, offset: int, total: int) -> pa.Table:
        rank = offset + np.arange(1, block.num_rows + 1, dtype=np.int64)
        out = block.append_column("rank", pa.array(rank))
        if pct:
            denom = max(total - 1, 1)
            out = out.append_column(
                "pct_rank", pa.array((rank - 1) / denom, pa.float64())
            )
        return out

    counts = ray.get([_nrows.remote(r) for r in refs])
    total = int(sum(counts))
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])) if counts else []
    return ray.data.from_arrow_refs(
        [_assign.remote(r, int(o), total) for r, o in zip(refs, offsets)]
    )


# --- ranked-retrieval evaluation ------------------------------------------

def discount_micro(k: int) -> np.ndarray:
    """Integer micro-unit DCG discounts: du[r-1] = round(1e6/log2(r+1)).

    Inlined into the SQL oracle as a VALUES table, so BOTH sides score
    with the SAME integer constants — per-query DCG sums are exact
    int64 arithmetic (order-free), no libm log2 parity risk."""
    r = np.arange(1, k + 1, dtype=np.float64)
    return np.rint(1e6 / np.log2(r + 1.0)).astype(np.int64)


def reciprocal_micro(k: int) -> np.ndarray:
    """Integer micro-unit reciprocal ranks: ru[r-1] = round(1e6/r)."""
    return np.rint(1e6 / np.arange(1, k + 1, dtype=np.float64)).astype(np.int64)


def retrieval_metrics(runs, k: int = 10,
                      qid_col: str = "query_id", doc_col: str = "doc_id",
                      score_col: str = "score", rel_col: str = "rel"):
    """TREC-style ranked-retrieval eval: per query NDCG@k, MRR@k,
    recall@k over a runs Dataset (query_id, doc_id, score, rel).

    The eval side of the engine's retrieval ladder (bm25 / ann_topk /
    lsh_ann produce runs; this scores them against graded relevance).
    Reference context: solaris's Evaluator scores proposals vs ground
    truth per tile (`/root/reference/solaris/eval/base.py`); ranked
    retrieval is the text-corpus analogue, macro-averaged per query.

    Semantics (deterministic, oracle-exact):
    - rank = order by score DESC, doc_id ASC (unique tiebreak)
    - gain = linear (rel), discount = 1/log2(rank+1), both in integer
      micro-units (``discount_micro``) -> DCG_u = sum(rel*du[rank]),
      IDCG_u over rel DESC ideal order, ndcg6 = round(DCG_u/IDCG_u, 6)
    - mrr6 = round-micro reciprocal of the first relevant rank <= k
    - recall6 = round(hits_in_top_k / n_rel, 6); 0.0 when n_rel = 0

    Shape: one ``co_shuffle`` on query_id; inside a bucket every query
    is scored vectorized via lexsort segments (the stages/components.py
    idiom) — no per-query Python dispatch, no driver-side sort.
    Output: one row per query, all-integer working columns plus the
    rounded metrics.
    """
    du = discount_micro(k)
    ru = reciprocal_micro(k)

    def _project(batch: pa.Table) -> pa.Table:
        q = batch[qid_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "q": pa.array(q, pa.int64()),
                "d": pa.array(
                    batch[doc_col].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
                "s": pa.array(
                    batch[score_col].to_numpy(zero_copy_only=False).astype(np.float64),
                    pa.float64(),
                ),
                "r": pa.array(
                    batch[rel_col].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    out_schema = pa.schema(
        [(qid_col, pa.int64()), ("n_rel", pa.int64()),
         ("dcg_u", pa.int64()), ("idcg_u", pa.int64()),
         ("ndcg6", pa.float64()), ("mrr6", pa.float64()),
         ("recall6", pa.float64())]
    )

    def _score(group: pa.Table) -> pa.Table:
        q = group["q"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        s = group["s"].to_numpy(zero_copy_only=False)
        r = group["r"].to_numpy(zero_copy_only=False)
        if q.size == 0:
            return out_schema.empty_table()
        # score order: (q asc, score desc, doc asc)
        o = np.lexsort((d, -s, q))
        q1, d1, r1 = q[o], d[o], r[o]
        new = np.r_[True, q1[1:] != q1[:-1]]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        nq = starts.size
        rank = np.arange(q1.size, dtype=np.int64) - starts[seg] + 1
        topk = rank <= k
        dcg_u = np.zeros(nq, np.int64)
        sel = topk & (r1 > 0)
        np.add.at(dcg_u, seg[sel], r1[sel] * du[rank[sel] - 1])
        hits = np.zeros(nq, np.int64)
        np.add.at(hits, seg[sel], 1)
        first = np.full(nq, np.iinfo(np.int64).max, np.int64)
        np.minimum.at(first, seg[sel], rank[sel])
        n_rel = np.zeros(nq, np.int64)
        np.add.at(n_rel, seg[r1 > 0], 1)
        # ideal order: (q asc, rel desc, doc asc)
        o2 = np.lexsort((d, -r, q))
        q2, r2 = q[o2], r[o2]
        new2 = np.r_[True, q2[1:] != q2[:-1]]
        seg2 = np.cumsum(new2) - 1
        starts2 = np.flatnonzero(new2)
        irank = np.arange(q2.size, dtype=np.int64) - starts2[seg2] + 1
        idcg_u = np.zeros(nq, np.int64)
        isel = (irank <= k) & (r2 > 0)
        np.add.at(idcg_u, seg2[isel], r2[isel] * du[irank[isel] - 1])
        ndcg6 = np.where(
            idcg_u > 0, np.round(dcg_u / np.maximum(idcg_u, 1), 6), 0.0
        )
        mrr6 = np.where(
            first <= k, ru[np.minimum(first, k) - 1] / 1e6, 0.0
        )
        recall6 = np.where(
            n_rel > 0, np.round(hits / np.maximum(n_rel, 1), 6), 0.0
        )
        return pa.table(
            {
                qid_col: pa.array(q1[starts], pa.int64()),
                "n_rel": pa.array(n_rel, pa.int64()),
                "dcg_u": pa.array(dcg_u, pa.int64()),
                "idcg_u": pa.array(idcg_u, pa.int64()),
                "ndcg6": pa.array(ndcg6, pa.float64()),
                "mrr6": pa.array(mrr6, pa.float64()),
                "recall6": pa.array(recall6, pa.float64()),
            }
        )

    return co_shuffle(runs.map_batches(_project, batch_format="pyarrow"), "q", _score)
