"""Per-source token-distribution KL divergence vs the corpus.

Corpus diagnostics for mixture curation: how far each source's
unigram distribution sits from the global one,
``KL(P_s || Q) = sum_t p_st * ln(p_st / q_t)`` with
``p_st = c_st / N_s`` and ``q_t = c_t / N``.  A source of boilerplate
scores high; a representative crawl scores near zero.  Complements
``source_overlap`` (pairwise Jaccard) with a direction-sensitive,
global-reference measure.

Scale plan: per-batch (source, term) Arrow group-by combine, then ONE
``co_shuffle`` on the term — a term's counts across all sources land
in one bucket, so both the per-term totals ``c_t`` and every source's
partial KL contribution are bucket-local.  Only |buckets| x |sources|
float partials shuffle to the final combine.  Source token totals
``N_s`` are a tiny pre-pass (a ``co_shuffle`` on the source, one row
per source) broadcast via ``ray.put``; a null source is refused there
with ``co_shuffle``'s named ``ValueError``.  Same float discipline as
tfidf: identical division/ln expression on both engine and oracle
sides, rounded to 6 dp (sum error ~1e-15 against a 1e-6 grid).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle
from .text import WORD_SPLIT


def source_kl(ds, group_col: str = "source", text_col: str = "text"):
    """-> one row per source: (source, n_tokens, kl6)."""
    import ray

    # ---- tiny pre-pass: token totals per source -----------------------
    def _totals(batch: pa.Table) -> pa.Table:
        n = pc.list_value_length(
            pc.split_pattern_regex(
                pc.utf8_trim_whitespace(batch[text_col]), WORD_SPLIT
            )
        )
        t = pa.table({group_col: batch[group_col], "n": pc.cast(n, pa.int64())})
        return t.group_by([group_col]).aggregate([("n", "sum")])

    tot = co_shuffle(
        ds.map_batches(_totals, batch_format="pyarrow"), group_col,
        lambda b: b.group_by([group_col]).aggregate([("n_sum", "sum")]),
    ).take_all()  # one row per source — the broadcast side
    n_s = {r[group_col]: int(r["n_sum_sum"]) for r in tot}
    n_total = sum(n_s.values())
    ns_ref = ray.put(n_s)

    part_schema = pa.schema(
        [("src", pa.string()), ("term", pa.string()), ("c", pa.int64())]
    )

    def _count(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(batch[text_col]), WORD_SPLIT
        )
        flat = pc.list_flatten(toks)
        if len(flat) == 0:
            return part_schema.empty_table()
        parent = pc.list_parent_indices(toks)
        src = pc.take(batch[group_col], parent)
        t = (
            pa.table({"src": src, "term": flat})
            .group_by(["src", "term"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "src": t["src"],
                "term": t["term"],
                "c": pc.cast(t["count_all"], pa.int64()),
            }
        )

    def _bucket_kl(group: pa.Table) -> pa.Table:
        src = group["src"].to_numpy(zero_copy_only=False)
        term = group["term"].to_numpy(zero_copy_only=False)
        c = group["c"].to_numpy(zero_copy_only=False)
        # exact (source, term) totals inside the bucket
        key = np.char.add(np.char.add(src.astype(str), "\x01"), term.astype(str))
        uk, inv = np.unique(key, return_inverse=True)
        c_st = np.zeros(uk.size, np.int64)
        np.add.at(c_st, inv, c)
        first = np.zeros(uk.size, np.int64)
        first[inv[::-1]] = np.arange(key.size - 1, -1, -1)
        u_src, u_term = src[first], term[first]
        # per-term totals (all sources of a term are in this bucket)
        ut, tinv = np.unique(u_term, return_inverse=True)
        c_t = np.zeros(ut.size, np.int64)
        np.add.at(c_t, tinv, c_st)
        ns_map = ray.get(ns_ref)
        su, sinv = np.unique(u_src, return_inverse=True)
        ns_arr = np.array([ns_map[s] for s in su], np.float64)
        p = c_st / ns_arr[sinv]
        q = c_t[tinv] / float(n_total)
        contrib = p * np.log(p / q)
        kl_part = np.zeros(su.size, np.float64)
        np.add.at(kl_part, sinv, contrib)
        return pa.table(
            {
                "src": pa.array(su, pa.string()),
                "kl_part": pa.array(kl_part, pa.float64()),
            }
        )

    out_schema = pa.schema(
        [(group_col, pa.string()), ("n_tokens", pa.int64()),
         ("kl6", pa.float64())]
    )

    def _final(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        src = batch["src"].to_numpy(zero_copy_only=False)
        kl = batch["sum(kl_part)"].to_numpy(zero_copy_only=False)
        ns_map = ray.get(ns_ref)
        nt = np.array([ns_map[s] for s in src], np.int64)
        return pa.table(
            {
                group_col: pa.array(src, pa.string()),
                "n_tokens": pa.array(nt, pa.int64()),
                "kl6": pa.array(np.round(kl, 6), pa.float64()),
            }
        )

    counts = ds.map_batches(_count, batch_format="pyarrow", batch_size=1024)
    return (
        co_shuffle(counts, "term", _bucket_kl)
        .groupby("src")
        .sum("kl_part")
        .map_batches(_final, batch_format="pyarrow")
    )
