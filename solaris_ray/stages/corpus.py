"""Two-pass corpus-statistics stages (training-data ops).

Operators that need a *corpus-level* artifact (a blocklist, a language
model) built in a first streaming pass, broadcast once with
``ray.put``, then applied in a second streaming pass — the canonical
train/apply shape of large-scale data pipelines the reference lacks:

- ``decontaminate``: benchmark-overlap filtering (the GPT-3/PaLM
  n-gram decontamination step).  Pass 1 collects the DISTINCT
  character-k-gram set of the benchmark docs (small by definition —
  eval sets are fixed-size); pass 2 counts, per candidate doc, how
  many of its distinct k-grams appear in that set.  Membership is
  Arrow C++ ``is_in`` over a broadcast value set — exact string
  compare, no hash-collision caveat, vectorized.
- ``bigram_lm_scores``: corpus-frequency familiarity scoring.  Pass 1
  is a partial-aggregated ``groupby(bigram).sum`` (combine inside
  map_batches first, so the shuffle carries one row per distinct
  bigram per block, not one per occurrence); the >= min_count vocab is
  broadcast; pass 2 scores each doc by total corpus frequency of its
  bigrams.  Integer outputs only — the DuckDB oracle reproduces them
  exactly.

Scale notes (100 TB): the benchmark gram set and the min_count vocab
are the ONLY driver-materialized artifacts; both are sublinear in
corpus size (eval sets are fixed; vocab under a count floor follows
Heaps' law).  Their sizes are logged.  Candidate/doc sides stream.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

logger = logging.getLogger(__name__)

WORD_SPLIT = r"\s+"



def _char_kgrams(text: pa.Array, k: int) -> tuple[np.ndarray, pa.Array]:
    """All k-codepoint substrings (stride 1) of each row.

    Returns (row_idx, grams) flat arrays.  One vectorized
    ``utf8_slice_codeunits`` call per offset (codepoint indexing —
    same frame as DuckDB ``substr``) — O(max_len) kernel
    launches, each over the whole batch; total work is bounded by
    batch chars x 1 slice copy.  Rows shorter than k yield nothing.
    """
    n_chars = pc.utf8_length(text).to_numpy().astype(np.int64)
    max_off = int(n_chars.max() - k) if len(n_chars) else -1
    rows_parts: list[np.ndarray] = []
    gram_parts: list[pa.Array] = []
    idx = np.arange(len(text), dtype=np.int64)
    for i in range(max_off + 1):
        valid = n_chars >= i + k
        if not valid.any():
            continue
        sel = pa.array(valid)
        sliced = pc.utf8_slice_codeunits(pc.filter(text, sel), start=i, stop=i + k)
        gram_parts.append(sliced)
        rows_parts.append(idx[valid])
    if not gram_parts:
        return np.zeros(0, dtype=np.int64), pa.array([], pa.string())
    rows = np.concatenate(rows_parts)
    grams = pa.concat_arrays([g.cast(pa.string()) for g in gram_parts])
    return rows, grams


def benchmark_gram_set(bench_ds, k: int = 20, text_col: str = "text") -> pa.Array:
    """Pass 1: DISTINCT char-k-grams of the benchmark docs.

    Engine-side distinct (groupby on the gram), driver receives only
    the deduplicated set — bounded by the benchmark corpus size, which
    is fixed (eval suites don't grow with the training corpus).
    """

    def _grams(batch: pa.Table) -> pa.Table:
        _, grams = _char_kgrams(batch.column(text_col).combine_chunks(), k)
        if len(grams) == 0:
            return pa.table({"g": pa.array([], pa.string())})
        return pa.table({"g": pc.unique(grams)})  # block-local pre-dedup

    distinct = (
        bench_ds.map_batches(_grams, batch_format="pyarrow")
        .groupby("g")
        .count()
        .select_columns(["g"])
    )
    tbl = pa.concat_tables(list(distinct.iter_batches(batch_format="pyarrow")))
    out = tbl["g"].combine_chunks()
    logger.info("benchmark gram set: %d distinct %d-grams", len(out), k)
    return out


class _Decontaminator:
    """Map stage: broadcast gram set in __init__, count overlaps
    per batch via Arrow ``is_in`` (exact strings, C++ hash set)."""

    def __init__(self, gram_set_ref, k: int, text_col: str, id_col: str):
        import ray

        self.grams = ray.get(gram_set_ref) if not isinstance(gram_set_ref, pa.Array) else gram_set_ref
        self.k = k
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch.column(self.text_col).combine_chunks()
        rows, grams = _char_kgrams(text, self.k)
        n = len(text)
        n_grams = np.zeros(n, dtype=np.int64)
        n_overlap = np.zeros(n, dtype=np.int64)
        if len(grams):
            # distinct (row, gram) pairs before counting
            uniq = (
                pa.table({"r": pa.array(rows), "g": grams})
                .group_by(["r", "g"])
                .aggregate([])
            )
            ur = uniq["r"].to_numpy()
            member = pc.is_in(uniq["g"].combine_chunks(), value_set=self.grams).to_numpy(
                zero_copy_only=False
            )
            np.add.at(n_grams, ur, 1)
            np.add.at(n_overlap, ur[member], 1)
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_grams": pa.array(n_grams),
                "n_overlap": pa.array(n_overlap),
                "contaminated": pa.array((n_overlap > 0).astype(np.int64)),
            }
        )


def decontaminate(
    docs_ds,
    bench_ds,
    k: int = 20,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Benchmark n-gram decontamination: for each candidate doc, count
    its distinct char-k-grams and how many appear in the benchmark
    set; flag ``contaminated`` when any does.

    docs_ds / bench_ds are Ray Datasets with (id_col, text_col).  The
    candidate side streams; only the benchmark gram set (fixed-size)
    is materialized and broadcast.
    """
    import ray

    from ..runtime import stateful_map

    gram_ref = ray.put(benchmark_gram_set(bench_ds, k=k, text_col=text_col))
    return stateful_map(
        docs_ds, _Decontaminator,
        dict(gram_set_ref=gram_ref, k=k, text_col=text_col, id_col=id_col),
        batch_size=1024,
    )


# --- corpus bigram LM ----------------------------------------------------

def _doc_bigrams(batch: pa.Table, text_col: str) -> tuple[np.ndarray, pa.Array, int]:
    """(row_idx, bigram) flat arrays of whitespace-token bigrams."""
    text = pc.utf8_trim_whitespace(batch.column(text_col).combine_chunks())
    toks = pc.split_pattern_regex(text, WORD_SPLIT)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    n_tok = pc.list_value_length(toks).to_numpy().astype(np.int64)
    rows = np.repeat(np.arange(len(toks), dtype=np.int64), n_tok)
    flat = pc.list_flatten(toks)
    if len(rows) < 2:
        return np.zeros(0, dtype=np.int64), pa.array([], pa.string()), len(toks)
    adj = rows[1:] == rows[:-1]
    bigrams = pc.filter(
        pc.binary_join_element_wise(flat.slice(0, len(flat) - 1), flat.slice(1), " "),
        pa.array(adj),
    )
    return rows[:-1][adj], bigrams, len(toks)


def train_bigram_counts(docs_ds, min_count: int = 3, text_col: str = "text") -> pa.Table:
    """Pass 1: corpus-wide bigram counts >= min_count.

    Partial aggregation inside map_batches (one (bigram, n) row per
    distinct bigram per block) then a small groupby sum — the shuffle
    carries combiner output, not raw occurrences.
    """

    def _partial(batch: pa.Table) -> pa.Table:
        _, bigrams, _ = _doc_bigrams(batch, text_col)
        if len(bigrams) == 0:
            return pa.table({"b": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
        g = pa.table({"b": bigrams}).group_by(["b"]).aggregate([([], "count_all")])
        return pa.table({"b": g["b"], "n": pc.cast(g["count_all"], pa.int64())})

    counts = (
        docs_ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("b")
        .sum("n")
        # min_count floor applied ENGINE-side: only the surviving vocab
        # crosses to the driver, never the full distinct-bigram table
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["sum(n)"], min_count)),
            batch_format="pyarrow",
        )
    )
    parts = list(counts.iter_batches(batch_format="pyarrow"))
    vocab = pa.concat_tables(parts) if parts else pa.table(
        {"b": pa.array([], pa.string()), "sum(n)": pa.array([], pa.int64())}
    )
    logger.info(
        "bigram LM vocab: %d bigrams >= %d occurrences", len(vocab), min_count,
    )
    return pa.table(
        {"b": vocab["b"].combine_chunks(), "n": pc.cast(vocab["sum(n)"], pa.int64())}
    )


class _BigramScorer:
    """Map stage: vocab broadcast once, per-batch index_in lookup."""

    def __init__(self, vocab_ref, text_col: str, id_col: str):
        import ray

        vocab = ray.get(vocab_ref) if not isinstance(vocab_ref, pa.Table) else vocab_ref
        self.vocab_b = vocab["b"].combine_chunks()
        self.vocab_n = vocab["n"].to_numpy().astype(np.int64)
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows, bigrams, n = _doc_bigrams(batch, self.text_col)
        n_bigrams = np.zeros(n, dtype=np.int64)
        n_covered = np.zeros(n, dtype=np.int64)
        lm_hits = np.zeros(n, dtype=np.int64)
        if len(bigrams):
            idx = pc.index_in(bigrams, value_set=self.vocab_b)
            hit = idx.is_valid().to_numpy(zero_copy_only=False)
            pos = idx.to_numpy(zero_copy_only=False)
            np.add.at(n_bigrams, rows, 1)
            np.add.at(n_covered, rows[hit], 1)
            np.add.at(lm_hits, rows[hit], self.vocab_n[pos[hit].astype(np.int64)])
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_bigrams": pa.array(n_bigrams),
                "n_covered": pa.array(n_covered),
                "lm_hits": pa.array(lm_hits),
            }
        )


def bigram_lm_scores(
    docs_ds,
    min_count: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    train_ds=None,
):
    """Two-pass corpus-familiarity scoring.

    (doc_id, n_bigrams, n_covered, lm_hits): per doc, its bigram count,
    how many of its bigrams clear the corpus min_count floor, and the
    summed corpus frequency of those bigrams (a doc's own occurrences
    count — same on both sides of the oracle).  ``train_ds`` defaults
    to ``docs_ds`` (self-scoring); pass a separate reference corpus to
    score against it.
    """
    import ray

    vocab = train_bigram_counts(train_ds if train_ds is not None else docs_ds,
                                min_count=min_count, text_col=text_col)
    from ..runtime import stateful_map

    vocab_ref = ray.put(vocab)
    return stateful_map(
        docs_ds, _BigramScorer,
        dict(vocab_ref=vocab_ref, text_col=text_col, id_col=id_col),
        batch_size=1024,
    )


# --- cross-source overlap matrix -----------------------------------------

_OVL_PART = pa.schema([("gram", pa.string()), ("source", pa.string())])


def source_overlap(ds, n: int = 3, text_col: str = "text", source_col: str = "source",
                   round_dp: int = 6):
    """Cross-source contamination matrix: for every source pair, the
    number of shared distinct word n-gram shingles and their Jaccard.

    Corpus diagnostics (mirror-site detection, split leakage across
    crawls).  Shape: one token-shingle pass emitting batch-distinct
    (gram, source) rows co-shuffled on the gram; inside each bucket the
    rows of a gram are co-located, so global (gram, source) dedup, the
    per-gram source-pair expansion (bounded by n_sources^2), and the
    per-source distinct-gram partial counts are all bucket-local.  Two
    tiny follow-up aggregates (pairs, per-source totals) finish it —
    gram strings cross the wire once.

    Output: (src_a < src_b, inter, jac6) for pairs with inter > 0.
    """
    import ray
    from ray.data.aggregate import Sum

    from ._buckets import co_shuffle
    from .dedup import word_shingles

    def _emit(batch: pa.Table) -> pa.Table:
        sh = word_shingles(batch[text_col], n)
        src = batch[source_col].to_pylist()
        grams, sources = [], []
        for i, arr in enumerate(sh):
            if arr.size == 0:
                continue
            grams.append(arr)
            sources.append(np.full(arr.size, src[i], object))
        if not grams:
            return _OVL_PART.empty_table()
        g = np.concatenate(grams)
        s = np.concatenate(sources)
        # batch-local (gram, source) dedup to shrink the shuffle
        key = np.char.add(np.char.add(g.astype(str), "\x01"), s.astype(str))
        _, idx = np.unique(key, return_index=True)
        g, s = g[idx], s[idx]
        return pa.table({"gram": pa.array(g, pa.string()),
                         "source": pa.array(s, pa.string())})

    def _bucket(group: pa.Table):
        g = group["gram"].to_numpy(zero_copy_only=False)
        s = group["source"].to_numpy(zero_copy_only=False)
        key = np.char.add(np.char.add(g.astype(str), "\x01"), s.astype(str))
        _, idx = np.unique(key, return_index=True)  # global (gram, source) dedup
        g, s = g[idx], s[idx]
        order = np.argsort(g, kind="stable")
        g, s = g[order], s[order]
        starts = np.flatnonzero(np.r_[True, g[1:] != g[:-1]])
        ends = np.r_[starts[1:], g.size]
        pa_, pb_, = [], []
        for st, en in zip(starts, ends):
            srcs = np.sort(s[st:en])
            m = en - st
            if m < 2:
                continue
            ia, ib = np.triu_indices(m, k=1)
            pa_.append(srcs[ia]); pb_.append(srcs[ib])
        # per-source distinct-gram partials for the Jaccard denominator
        usrc, ucnt = np.unique(s, return_counts=True)
        cnts = pa.table(
            {
                "src_a": pa.array(usrc, pa.string()),
                "src_b": pa.array(np.full(usrc.size, "", object), pa.string()),
                "inter": pa.array(ucnt.astype(np.int64), pa.int64()),
            }
        )
        if not pa_:
            return cnts
        aa = np.concatenate(pa_); bb = np.concatenate(pb_)
        pk = np.char.add(np.char.add(aa.astype(str), "\x01"), bb.astype(str))
        upk, pcnt = np.unique(pk, return_counts=True)
        sa = np.array([x.split("\x01")[0] for x in upk], object)
        sb = np.array([x.split("\x01")[1] for x in upk], object)
        pairs = pa.table(
            {
                "src_a": pa.array(sa, pa.string()),
                "src_b": pa.array(sb, pa.string()),
                "inter": pa.array(pcnt.astype(np.int64), pa.int64()),
            }
        )
        return pa.concat_tables([pairs, cnts])

    agg = (
        co_shuffle(ds.map_batches(_emit, batch_format="pyarrow", batch_size=1024),
                   "gram", _bucket)
        .groupby(["src_a", "src_b"])
        .aggregate(Sum("inter"))
    )  # pair rows (src_b != '') + per-source totals (src_b == '')
    rows = agg.take_all()  # n_sources^2 rows — tiny by construction
    tot = {r["src_a"]: r["sum(inter)"] for r in rows if r["src_b"] == ""}
    out = {"src_a": [], "src_b": [], "inter": [], "jac6": []}
    for r in sorted(rows, key=lambda r: (r["src_a"], r["src_b"])):
        if r["src_b"] == "":
            continue
        inter = int(r["sum(inter)"])
        na, nb = tot[r["src_a"]], tot[r["src_b"]]
        out["src_a"].append(r["src_a"])
        out["src_b"].append(r["src_b"])
        out["inter"].append(inter)
        out["jac6"].append(round(inter / (na + nb - inter), round_dp))
    return ray.data.from_arrow(
        pa.table(
            {
                "src_a": pa.array(out["src_a"], pa.string()),
                "src_b": pa.array(out["src_b"], pa.string()),
                "inter": pa.array(out["inter"], pa.int64()),
                "jac6": pa.array(out["jac6"], pa.float64()),
            }
        )
    )


def chunk_documents(
    docs,
    size: int = 500,
    overlap: int = 100,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """Overlapping-window document chunking — the embedding/RAG
    pipeline primitive (split each doc into ``size``-char windows at
    stride ``size - overlap``; every doc emits >= 1 chunk).

    Chunk k covers [k*stride, k*stride + size); k ranges over
    0 <= k*stride < max(len - overlap, 1), i.e. each chunk after the
    first contributes at least one character beyond the previous
    window.  Character (codepoint) semantics on both sides so a SQL
    ``substr`` twin is exact.

    Shape: stateless ``flat_map``-style ``map_batches`` — no shuffle
    at all; output rows carry (id, chunk_idx, chunk, n_chars)."""
    assert 0 <= overlap < size
    stride = size - overlap

    def _chunks(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        texts = batch[text_col].to_pylist()
        out_id, out_k, out_txt = [], [], []
        for i, t in zip(ids, texts):
            n = max(len(t) - overlap, 1)
            n_chunks = (n + stride - 1) // stride
            for k in range(n_chunks):
                out_id.append(i)
                out_k.append(k)
                out_txt.append(t[k * stride : k * stride + size])
        arr = pa.array(out_txt, pa.string())
        return pa.table(
            {
                id_col: pa.array(out_id, batch[id_col].type),
                "chunk_idx": pa.array(out_k, pa.int64()),
                "chunk": arr,
                "n_chars": pc.cast(pc.utf8_length(arr), pa.int64()),
            }
        )

    return docs.map_batches(_chunks, batch_format="pyarrow", batch_size=1024)


def paragraph_dedup(ds, sep: str = "\n\n", text_col: str = "text",
                    id_col: str = "doc_id"):
    """C4/CCNet-style paragraph-level exact dedup: every distinct
    paragraph keeps only its FIRST occurrence (global (doc_id, idx)
    order); each doc is reconstructed from its surviving paragraphs.

    Output: (doc_id, n_para, n_kept, clean_md5) — clean_md5 is the
    md5 hex of the sep-rejoined surviving text ("" when every
    paragraph loses), so a SQL twin compares reconstruction
    byte-for-byte without shipping text to the compare.

    Shape (complements `dup_spans`' suffix-window dedup and the
    dedup.py doc-level ladder): (1) docs explode to fixed-width
    (para_hash, doc_id, idx) rows; (2) a hash-bucket co-shuffle keeps
    the lexicographic-min (doc_id, idx) winner per hash and emits
    only LOSER rows; (3) losers co-shuffle back on a doc bucket with
    the doc rows and reconstruction re-splits each doc's OWN text —
    paragraph strings never ride the winner shuffle, and the one
    text-bearing exchange moves each doc exactly once.  Paragraph
    identity is the md5-low-8 64-bit hash (same collision budget as
    the corpus-wide dedup ops; documented, not hidden).
    """
    import hashlib

    def _hash64(strs: list[str]) -> np.ndarray:
        u = np.asarray(
            [int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")
             for s in strs], dtype=np.uint64)
        return u.view(np.int64)

    from ._buckets import co_shuffle

    def _explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch[text_col].to_pylist()
        did, idx, ph = [], [], []
        for i, t in zip(ids.tolist(), texts):
            parts = t.split(sep)
            did.extend([i] * len(parts))
            idx.extend(range(len(parts)))
            ph.append(_hash64(parts))
        h = (np.concatenate(ph) if ph else np.empty(0, np.int64))
        return pa.table({
            "ph": pa.array(h, pa.int64()),
            "d": pa.array(np.asarray(did, np.int64), pa.int64()),
            "i": pa.array(np.asarray(idx, np.int64), pa.int64()),
        })

    loser_schema = pa.schema([
        ("d", pa.int64()), ("i", pa.int64()), ("side", pa.int64()),
        ("text", pa.string()),
    ])

    def _losers(group: pa.Table) -> pa.Table:
        ph = group["ph"].to_numpy(zero_copy_only=False)
        d = group["d"].to_numpy(zero_copy_only=False)
        i = group["i"].to_numpy(zero_copy_only=False)
        order = np.lexsort((i, d, ph))
        ph, d, i = ph[order], d[order], i[order]
        first = np.ones(ph.size, bool)
        first[1:] = ph[1:] != ph[:-1]
        lose = ~first  # winner = first row of each hash segment
        n = int(lose.sum())
        return pa.table({
            "d": pa.array(d[lose], pa.int64()),
            "i": pa.array(i[lose], pa.int64()),
            "side": pa.array(np.zeros(n, np.int64), pa.int64()),
            "text": pa.nulls(n, pa.string()),
        }, schema=loser_schema)

    def _doc_side(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = ids.size
        return pa.table({
            "d": pa.array(ids, pa.int64()),
            "i": pa.array(np.full(n, -1, np.int64), pa.int64()),
            "side": pa.array(np.ones(n, np.int64), pa.int64()),
            "text": pc.cast(batch[text_col], pa.string()),
        }, schema=loser_schema)

    out_schema = pa.schema([
        ("doc_id", pa.int64()), ("n_para", pa.int64()),
        ("n_kept", pa.int64()), ("clean_md5", pa.string()),
    ])

    def _rebuild(group: pa.Table) -> pa.Table:
        d = group["d"].to_numpy(zero_copy_only=False)
        i = group["i"].to_numpy(zero_copy_only=False)
        side = group["side"].to_numpy(zero_copy_only=False)
        texts = group["text"].to_pylist()
        # doc rows carry text, loser rows carry the idx to drop
        out = {"doc_id": [], "n_para": [], "n_kept": [], "clean_md5": []}
        lose_by_doc: dict[int, set] = {}
        for r in np.flatnonzero(side == 0):
            lose_by_doc.setdefault(int(d[r]), set()).add(int(i[r]))
        for r in np.flatnonzero(side == 1):
            did = int(d[r])
            parts = texts[r].split(sep)
            drop = lose_by_doc.get(did, ())
            kept = [p for j, p in enumerate(parts) if j not in drop]
            clean = sep.join(kept)
            out["doc_id"].append(did)
            out["n_para"].append(len(parts))
            out["n_kept"].append(len(kept))
            out["clean_md5"].append(hashlib.md5(clean.encode()).hexdigest())
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "n_para": pa.array(out["n_para"], pa.int64()),
            "n_kept": pa.array(out["n_kept"], pa.int64()),
            "clean_md5": pa.array(out["clean_md5"], pa.string()),
        }, schema=out_schema)

    losers = co_shuffle(ds.map_batches(_explode, batch_format="pyarrow"), "ph", _losers)
    return co_shuffle(losers.union(ds.map_batches(_doc_side, batch_format="pyarrow")),
                      "d", _rebuild)


def dsir_weights(raw, target, n_buckets: int = 64,
                 text_col: str = "text", id_col: str = "doc_id"):
    """DSIR-style hashed importance weights (Xie et al.,
    arXiv:2302.03169 "Data Selection for Language Models via
    Importance Resampling"): score every raw-corpus doc by how much
    its hashed unigram profile looks like the TARGET corpus.

    log-weight(d) = Σ_b cnt_d[b] · (ln(t_b+1) − ln(T+B)
                                    − ln(r_b+1) + ln(R+B))
    — add-one-smoothed bucket log-likelihood ratio, b over
    ``n_buckets`` md5 token buckets (the feature_hash idiom, so a SQL
    twin reproduces bucket ids exactly), t/r the target/raw corpus
    bucket counts, T/R their totals.  Resampling keeps docs ∝ exp(w);
    emitting the weight keeps the gate deterministic and lets callers
    choose top-k / threshold / Gumbel downstream.

    Scale shape: the two corpus profiles are O(n_buckets) rows each
    (groupby(bucket) partial+final), broadcast into a single stateless
    scoring pass — no shuffle ever carries text.  Output
    (doc_id, n_toks, logw) with logw rounded 6dp (identical float
    operands both sides).
    """
    from .text import feature_hash_counts

    def _profile(ds):
        import ray  # noqa: F401

        vec = np.zeros(n_buckets, np.int64)
        agg = (
            ds.map_batches(
                lambda b: feature_hash_counts(b, n_buckets=n_buckets,
                                              text_col=text_col,
                                              id_col=id_col),
                batch_format="pyarrow", batch_size=4096)
            .groupby("bucket").sum("cnt").to_pandas()
        )
        vec[agg["bucket"].to_numpy()] = agg["sum(cnt)"].to_numpy()
        return vec

    t_vec = _profile(target)
    r_vec = _profile(raw)
    ratio = (np.log(t_vec + 1.0) - np.log(float(t_vec.sum() + n_buckets))
             - np.log(r_vec + 1.0) + np.log(float(r_vec.sum() + n_buckets)))

    def _score(batch: pa.Table) -> pa.Table:
        sparse = feature_hash_counts(batch, n_buckets=n_buckets,
                                     text_col=text_col, id_col=id_col)
        d = sparse[id_col].to_numpy(zero_copy_only=False)
        b = sparse["bucket"].to_numpy(zero_copy_only=False)
        c = sparse["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        d, b, c = d[order], b[order], c[order]
        new = np.ones(d.size, bool)
        new[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new)
        logw = np.add.reduceat(c * ratio[b], starts) if d.size else np.empty(0)
        n_toks = np.add.reduceat(c, starts) if d.size else np.empty(0, np.int64)
        return pa.table({
            "doc_id": pa.array(d[starts], pa.int64()),
            "n_toks": pa.array(n_toks.astype(np.int64), pa.int64()),
            "logw": pa.array(np.round(logw, 6), pa.float64()),
        })

    return raw.map_batches(_score, batch_format="pyarrow", batch_size=4096)
