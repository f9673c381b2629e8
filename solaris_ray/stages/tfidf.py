"""Distributed TF-IDF: per-document top-k distinctive terms.

Training-data curation primitive (topic tagging, keyword extraction,
quality filtering by term distinctiveness); the reference has no text
stack.  Tokenization = whitespace split of trimmed text, the corpus
convention shared with stages.text and every SQL oracle.

Shape (two ``co_shuffle`` passes, everything vectorized):
  1. ``map_batches``: explode tokens with Arrow C++
     (``split_pattern_regex`` -> ``list_flatten`` +
     ``list_parent_indices``), per-batch (doc, term) counts via
     ``pa.Table.group_by`` — rows leaving the stage are (doc_id, term,
     tf), already combined per batch.
  2. ``co_shuffle`` on the term: all rows of a term land in one bucket;
     df = per-term row count (exact — (doc, term) is unique), attached
     by ``np.unique(return_inverse)``, and score6 = round(tf * ln(N/df),
     6) beside it.  One kernel call per bucket, not per term, keeps the
     call count at the shuffle width instead of vocabulary-size
     (millions of tiny Python group calls at scale).
  3. ``top_k`` on doc_id: per-doc rank by (score6 desc, term asc), keep
     top k.

Only (id, term, two ints) rows shuffle — never document bodies.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, top_k
from .text import WORD_SPLIT

_TF_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("term", pa.string()), ("tf", pa.int64())]
)
_OUT_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("rank", pa.int64()), ("term", pa.string()),
     ("tf", pa.int64()), ("df", pa.int64()), ("score6", pa.float64())]
)


def vocab_topk(ds, k: int = 100, text_col: str = "text", id_col: str = "doc_id"):
    """Global heavy-hitters: top-k terms by total occurrence count,
    ties broken by term asc.  Per-batch combine (Arrow group_by) ->
    ``co_shuffle`` on the term for exact totals with a per-bucket top-k
    prune (safe: a term's rows all land in one bucket) -> tiny global
    sort + limit."""
    part_schema = pa.schema([("term", pa.string()), ("cnt", pa.int64())])

    def _count(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(batch[text_col]), WORD_SPLIT
        )
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return part_schema.empty_table()
        t = pa.table({"term": flat}).group_by(["term"]).aggregate([([], "count_all")])
        return pa.table({"term": t["term"], "cnt": pc.cast(t["count_all"], pa.int64())})

    def _bucket_topk(group: pa.Table) -> pa.Table:
        terms = group["term"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(terms, return_inverse=True)
        tot = np.zeros(len(uniq), np.int64)
        np.add.at(tot, inv, cnt)
        order = np.lexsort((uniq, -tot))[:k]
        return pa.table(
            {
                "term": pa.array(uniq[order], pa.string()),
                "cnt": pa.array(tot[order], pa.int64()),
            }
        )

    counts = ds.map_batches(_count, batch_format="pyarrow", batch_size=1024)
    return (
        co_shuffle(counts, "term", _bucket_topk)
        .sort(["cnt", "term"], descending=[True, False])
        .limit(k)
    )


def tfidf_topk(ds, k: int = 5, text_col: str = "text", id_col: str = "doc_id"):
    """documents -> (doc_id, rank, term, tf, df, score6), top-k terms
    per document by tf * ln(N/df), rank ties broken by term asc."""
    n_docs = ds.count()

    def _explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(batch[text_col]), WORD_SPLIT
        )
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return _TF_SCHEMA.empty_table()
        parent = pc.list_parent_indices(toks)
        ids = pc.take(pc.cast(batch[id_col], pa.int64()), parent)
        tf = (
            pa.table({"doc_id": ids, "term": flat})
            .group_by(["doc_id", "term"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "doc_id": tf["doc_id"],
                "term": tf["term"],
                "tf": pc.cast(tf["count_all"], pa.int64()),
            }
        )

    def _score(group: pa.Table) -> pa.Table:
        # df = rows per term ((doc, term) is unique); score6 = round(tf * ln(N/df), 6)
        terms = group["term"].to_numpy(zero_copy_only=False)
        _, inv, cnt = np.unique(terms, return_inverse=True, return_counts=True)
        df = cnt[inv].astype(np.int64)
        tf = group["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.round(tf * np.log(n_docs / df.astype(np.float64)), 6)
        return group.append_column("df", pa.array(df, pa.int64())).append_column(
            "score6", pa.array(score, pa.float64()))

    tf = ds.map_batches(_explode, batch_format="pyarrow", batch_size=1024)
    scored = co_shuffle(tf, "term", _score)
    out = top_k(scored, "doc_id", [("score6", "descending"), ("term", "ascending")], k)
    return out.map_batches(lambda b: b.select(_OUT_SCHEMA.names), batch_format="pyarrow")
