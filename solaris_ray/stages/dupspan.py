"""Exact duplicate-substring span detection (k-gram granularity).

Ray-Data-native analogue of corpus-level exact substring deduplication
(Lee et al., "Deduplicating Training Data Makes Language Models
Better", ACL 2022): every k-character window of every document is
hashed; windows whose gram occurs >= ``min_count`` times anywhere in
the corpus (including repeats inside one document) are *duplicated*;
per document we report how many characters are covered by at least one
duplicated window and the covered fraction.

The reference repo has no counterpart (it is a geospatial engine) —
this sits in the LLM-training-data ladder next to MinHash / SimHash /
pHash (stages/dedup.py) and decontamination (stages/corpus.py).

Scale design (100 TB):

- pass 1 is one ``map_batches`` emitting ``(h:int64, doc_id, pos,
  n_chars)`` — ~24 bytes per corpus character; gram TEXT never enters
  the shuffle.  The hash is the winnowing rolling polynomial
  (base 1000003 mod 2^64 over unicode codepoints, stages/text.py) —
  O(doc length) per document, vectorized across the batch's documents
  (the scalar recurrence runs over the PADDED-LENGTH axis with whole-
  batch vector ops, not per document).
- one ``co_shuffle`` on ``h`` marks occurrences of grams with corpus
  count >= min_count.  Emission is LINEAR in bucket size — unlike pair
  emitters there is no quadratic blow-up, so no bucket cap is needed;
  one kernel call per bucket, not per gram, keeps per-group Python
  overhead off the hot path.
- one ``co_shuffle`` on ``doc_id`` merges marked windows
  into covered-character counts with the vectorized
  ``sum(min(gap, k))`` interval-union identity — output is one row per
  document that has any duplicated span.

A 64-bit polynomial hash can collide (~n^2 / 2^65); at gate scale that
probability is ~1e-8 and the DuckDB oracle uses the gram STRINGS
themselves, so a collision would surface as a hash-mismatch rather
than hide.  At 100 TB, collisions only ever OVER-mark a window pair —
acceptable for a filtering signal (same trade the paper makes with
suffix-array buckets).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle

_B = np.uint64(1000003)

GRAM_SCHEMA = pa.schema(
    [
        ("h", pa.int64()),
        ("doc_id", pa.int64()),
        ("pos", pa.int32()),
        ("n_chars", pa.int64()),
    ]
)


def rolling_gram_hashes(texts: list[str], k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All k-gram rolling hashes for a batch of texts.

    Returns (row_index, pos, hash) flat arrays.  The recurrence loops
    over the padded-length axis (max doc length) doing whole-batch
    uint64 vector ops — O(max_len) numpy calls regardless of batch
    size.  Same hash ring as winnow_fingerprints (stages/text.py): the
    prefix trick h(i, i+k) = P[i+k] - P[i] * B^k mod 2^64.
    """
    np.seterr(over="ignore")  # uint64 wraparound IS the hash ring
    nrows = len(texts)
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=nrows)
    if nrows == 0 or lens.max(initial=0) < k:
        e = np.empty(0, dtype=np.int64)
        return e, e.astype(np.int32), e.astype(np.uint64)
    L = int(lens.max())
    M = np.zeros((nrows, L), dtype=np.uint64)
    for r, t in enumerate(texts):
        if t:
            M[r, : len(t)] = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32)
    P = np.zeros((nrows, L + 1), dtype=np.uint64)
    for i in range(L):
        P[:, i + 1] = P[:, i] * _B + M[:, i]
    Bk = _B ** np.uint64(k)
    H = P[:, k:] - P[:, : L - k + 1] * Bk  # (nrows, L-k+1)
    npos = L - k + 1
    pos_grid = np.broadcast_to(np.arange(npos, dtype=np.int32), (nrows, npos))
    valid = pos_grid < (lens[:, None] - k + 1)
    rows = np.broadcast_to(np.arange(nrows, dtype=np.int64)[:, None], (nrows, npos))
    return rows[valid], pos_grid[valid], H[valid]


def _emit_grams(batch: pa.Table, k: int, text_col: str, id_col: str) -> pa.Table:
    texts = batch[text_col].to_pylist()
    ids = batch[id_col].to_numpy().astype(np.int64)
    rows, pos, h = rolling_gram_hashes(texts, k)
    lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=len(texts))
    return pa.table(
        {
            "h": pa.array(h.astype(np.int64), pa.int64()),
            "doc_id": pa.array(ids[rows], pa.int64()),
            "pos": pa.array(pos, pa.int32()),
            "n_chars": pa.array(lens[rows], pa.int64()),
        },
        schema=GRAM_SCHEMA,
    )


def _mark_bucket(group: pa.Table, min_count: int) -> pa.Table:
    """Within one hash bucket: keep rows whose gram hash occurs >=
    min_count times corpus-wide.  Vectorized run-length over the
    sorted hash column; emission linear in group size."""
    if group.num_rows == 0:
        return group.select(["doc_id", "pos", "n_chars"])
    h = group["h"].to_numpy()
    order = np.argsort(h, kind="stable")
    hs = h[order]
    new = np.r_[True, hs[1:] != hs[:-1]]
    run_id = np.cumsum(new) - 1
    counts = np.bincount(run_id)
    keep_sorted = counts[run_id] >= min_count
    keep = np.zeros(len(h), dtype=bool)
    keep[order] = keep_sorted
    return group.filter(pa.array(keep)).select(["doc_id", "pos", "n_chars"])


def _coverage_bucket(group: pa.Table, k: int) -> pa.Table:
    """Within one doc-id bucket: per-document covered-character count
    over the union of [pos, pos+k) windows — sum(min(gap, k)) over
    sorted positions, k for each document's first window."""
    if group.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_chars": pa.array([], pa.int64()),
                "dup_chars": pa.array([], pa.int64()),
                "dup_frac": pa.array([], pa.float64()),
            }
        )
    d = group["doc_id"].to_numpy()
    p = group["pos"].to_numpy().astype(np.int64)
    n = group["n_chars"].to_numpy()
    order = np.lexsort((p, d))
    d, p, n = d[order], p[order], n[order]
    new = np.r_[True, d[1:] != d[:-1]]
    contrib = np.minimum(np.r_[np.int64(0), p[1:] - p[:-1]], k)
    contrib[new] = k
    starts = np.flatnonzero(new)
    dup = np.add.reduceat(contrib, starts)
    ud, un = d[starts], n[starts]
    return pa.table(
        {
            "doc_id": pa.array(ud, pa.int64()),
            "n_chars": pa.array(un, pa.int64()),
            "dup_chars": pa.array(dup, pa.int64()),
            "dup_frac": pa.array(dup.astype(np.float64) / un.astype(np.float64)),
        }
    )


def duplicate_spans(
    docs,
    k: int = 32,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_count: int = 2,
):
    """(doc_id, n_chars, dup_chars, dup_frac) for every document with at
    least one k-char window duplicated >= min_count times corpus-wide.

    Two ``co_shuffle`` passes (gram hash, then doc id), each kernel
    vectorized over its bucket; linear emission throughout.
    """
    grams = docs.map_batches(
        lambda b: _emit_grams(b, k, text_col, id_col),
        batch_format="pyarrow",
        batch_size=4096,
    )

    marked = co_shuffle(grams, "h", lambda g: _mark_bucket(g, min_count))
    return co_shuffle(marked, "doc_id", lambda g: _coverage_bucket(g, k))
