"""Edit-distance-1 similarity self-join via FastSS deletion
neighborhoods.

The short-string complement of the MinHash ladder (`stages/dedup.py`):
near-identical names / titles / labels — OCR'd street names in the
reference's geocoding world, near-duplicate captions or entity labels
in a training corpus — differ by ONE substitution, insertion or
deletion, which Jaccard shingles are blind to at short lengths.

FastSS (Bocek et al., 2007): lev(a, b) <= 1 implies the key sets
{s} ∪ D1(s) intersect, where D1 is all single-character deletions —
a substitution at i shares the delete-i key, an insertion shares the
inserted string itself, equality shares the identity key.  The
converse does NOT hold (e.g. "ab"/"ba" share keys at distance 2), so
candidates are verified exactly.

Scale shape: one vectorized emission pass (O(L) `utf8_slice_codeunits`
kernels per batch — per deletion POSITION, never per row), then ONE
bucketed co-shuffle of (key-hash, id, string) rows: key-hash buckets
emit candidate pairs per shared key with a per-key cap (capped +
logged, the dedup.py discipline — a degenerate key like the empty
string cannot blow up a task), dedupe within the bucket, and run the
exact verifier IN the bucket, so strings never ride a second
exchange; a final id-only groupby distinct collapses pairs that met
under keys in different buckets.  The verifier is
byte-level (UTF-8): per distinct length pair, strings become a uint8
matrix and hamming / aligned-deletion checks are pure numpy — loops
run over distinct LENGTHS, not rows.  Byte-level equals
character-level edit distance on ASCII corpora (the fixture); for
multibyte text a one-character edit can span bytes and is counted as
such — documented, not hidden.

Output: (id_a, id_b) with id_a < id_b, every byte-level
edit-distance-<=1 pair exactly once — hash-exact vs a DuckDB
``levenshtein() <= 1`` cross-join twin on ASCII input.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, distinct_reduce

logger = logging.getLogger(__name__)

_PAIR_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])


def _hash_strings(arr: pa.Array) -> np.ndarray:
    """Vectorized string -> int64 key hash (pandas siphash, C loop)."""
    h = pd.util.hash_array(np.asarray(arr.to_pylist(), dtype=object))
    return h.astype(np.int64)


def _verify_leq1(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """Exact byte-level lev(a,b) <= 1 for object arrays of UTF-8
    bytes; vectorized per distinct (len_a, len_b) combination."""
    n = sa.size
    ok = np.zeros(n, bool)
    if n == 0:
        return ok
    la = np.fromiter((len(x) for x in sa), np.int64, n)
    lb = np.fromiter((len(x) for x in sb), np.int64, n)

    def _matrix(strs, length):
        return np.frombuffer(b"".join(strs), np.uint8).reshape(-1, length)

    same = la == lb
    for L in np.unique(la[same]):
        rows = np.flatnonzero(same & (la == L))
        if L == 0:
            ok[rows] = True  # equal empty strings
            continue
        ma = _matrix(sa[rows].tolist(), L)
        mb = _matrix(sb[rows].tolist(), L)
        ok[rows] = (ma != mb).sum(axis=1) <= 1
    diff1 = np.abs(la - lb) == 1
    for L in np.unique(np.maximum(la, lb)[diff1]):
        rows = np.flatnonzero(diff1 & (np.maximum(la, lb) == L))
        a_long = la[rows] > lb[rows]
        lng = np.where(a_long, sa[rows], sb[rows])
        sht = np.where(a_long, sb[rows], sa[rows])
        ml = _matrix(lng.tolist(), L)
        if L == 1:
            ok[rows] = True  # one char vs empty string
            continue
        ms = _matrix([s + b"\x00" for s in sht.tolist()], L)
        # first mismatch position p: long == short on [0, p) and
        # long[p+1:] == short[p:] iff deleting long[p] yields short
        neq = ml[:, :-1] != ms[:, :-1]
        p = np.where(neq.any(axis=1), neq.argmax(axis=1), L - 1)
        cols = np.arange(L - 1)
        shifted_eq = ml[:, 1:] == ms[:, :-1]
        # suffix check: all columns >= p must match shifted
        ok[rows] = np.where(cols >= p[:, None], shifted_eq, True).all(axis=1)
    return ok


def editdist1_pairs(
    ds,
    id_col: str = "doc_id",
    s_col: str = "s",
    max_len: int = 64,
    max_key_bucket: int = 4096,
):
    """Dataset of (id, string) -> all unordered pairs at byte-level
    edit distance <= 1, as (id_a, id_b) with id_a < id_b.

    ``max_len``: deletion keys are emitted for the first ``max_len``
    byte positions only; longer strings still join exactly when their
    edit lies in that prefix (raise it for long-tail corpora).
    ``max_key_bucket``: per-key candidate cap — keys carrying more
    strings are truncated WITH A LOG LINE (degenerate keys, e.g.
    every 1-char string sharing the empty-deletion key)."""
    return editdist_pairs(ds, 1, id_col, s_col, max_len, max_key_bucket)


def _verify_leq_k(sa: np.ndarray, sb: np.ndarray, k: int) -> np.ndarray:
    """Exact byte-level lev(a,b) <= k via fully vectorized DP per
    distinct (len_a, len_b) class.

    The insertion recurrence (a left-to-right scan) is expressed as a
    prefix-min identity — cur[j] = min(cand[j], j + running_min(cand -
    arange)) — so the whole row updates with ``np.minimum.accumulate``:
    the DP loops over STRING POSITIONS (<= max_len), never over pairs.
    """
    n = sa.size
    ok = np.zeros(n, bool)
    if n == 0:
        return ok
    la = np.fromiter((len(x) for x in sa), np.int64, n)
    lb = np.fromiter((len(x) for x in sb), np.int64, n)
    cand = np.abs(la - lb) <= k
    pairs = {}
    for r in np.flatnonzero(cand).tolist():
        pairs.setdefault((int(la[r]), int(lb[r])), []).append(r)
    for (A_len, B_len), rows in pairs.items():
        rows = np.asarray(rows)
        if A_len == 0 or B_len == 0:
            ok[rows] = max(A_len, B_len) <= k
            continue
        A = np.frombuffer(b"".join(sa[rows].tolist()), np.uint8).reshape(-1, A_len)
        B = np.frombuffer(b"".join(sb[rows].tolist()), np.uint8).reshape(-1, B_len)
        m = rows.size
        ar = np.arange(B_len + 1, dtype=np.int64)
        prev = np.broadcast_to(ar, (m, B_len + 1)).copy()
        for i in range(1, A_len + 1):
            sub = prev[:, :-1] + (A[:, i - 1][:, None] != B)
            dele = prev[:, 1:] + 1
            cand_row = np.empty((m, B_len + 1), np.int64)
            cand_row[:, 0] = i
            cand_row[:, 1:] = np.minimum(sub, dele)
            # insertions: prefix-min scan as an accumulate
            run = np.minimum.accumulate(cand_row - ar, axis=1)
            prev = np.minimum(cand_row, run + ar)
        ok[rows] = prev[:, -1] <= k
    return ok


def editdist_pairs(
    ds,
    k: int = 2,
    id_col: str = "doc_id",
    s_col: str = "s",
    max_len: int = 32,
    max_key_bucket: int = 4096,
):
    """Generalized FastSS: all unordered pairs at byte-level edit
    distance <= ``k`` (k in {1, 2}), as (id_a, id_b) with id_a < id_b.

    Candidate completeness: an edit script of <= k operations induces a
    common string reachable by <= k deletions from EACH side, so the
    up-to-k deletion neighborhoods intersect; candidates are verified
    with the exact vectorized DP (``_verify_leq_k``).  k=2 emits
    O(max_len^2 / 2) slice kernels per batch — each one an Arrow
    column-level call, never a row loop — so keep ``max_len`` at the
    corpus's realistic name length, not at document scale.
    """
    if k not in (1, 2):
        raise ValueError("editdist_pairs supports k in {1, 2}")

    def _emit_keys(batch: pa.Table) -> pa.Table:
        s = pc.cast(batch[s_col], pa.string())
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(s) == 0:
            return pa.table(
                {
                    "kh": pa.array([], pa.int64()),
                    "id": pa.array([], pa.int64()),
                    "s": pa.array([], pa.string()),
                }
            )
        lens = pc.utf8_length(s).to_numpy(zero_copy_only=False)
        sobj = np.asarray(s.to_pylist(), dtype=object)
        khs, kid, kst = [_hash_strings(s)], [ids], [sobj]
        dmax = int(min(max_len, lens.max()))
        far = 2**30
        for d in range(dmax):
            valid = np.flatnonzero(lens > d)
            if valid.size == 0:
                break
            sub = s.take(pa.array(valid))
            pre = pc.utf8_slice_codeunits(sub, 0, d)
            suf = pc.utf8_slice_codeunits(sub, d + 1, far)
            key = pc.binary_join_element_wise(pre, suf, "")
            khs.append(_hash_strings(key))
            kid.append(ids[valid])
            kst.append(sobj[valid])
        if k == 2:
            for d1 in range(dmax):
                for d2 in range(d1 + 1, dmax):
                    valid = np.flatnonzero(lens > d2)
                    if valid.size == 0:
                        break
                    sub = s.take(pa.array(valid))
                    p1 = pc.utf8_slice_codeunits(sub, 0, d1)
                    p2 = pc.utf8_slice_codeunits(sub, d1 + 1, d2)
                    p3 = pc.utf8_slice_codeunits(sub, d2 + 1, far)
                    key = pc.binary_join_element_wise(p1, p2, p3, "")
                    khs.append(_hash_strings(key))
                    kid.append(ids[valid])
                    kst.append(sobj[valid])
        kh = np.concatenate(khs)
        kid_all = np.concatenate(kid)
        kst_all = np.concatenate(kst)
        order = np.lexsort((kid_all, kh))
        kh, kid_all, kst_all = kh[order], kid_all[order], kst_all[order]
        keep = np.ones(kh.size, bool)
        keep[1:] = (kh[1:] != kh[:-1]) | (kid_all[1:] != kid_all[:-1])
        kh, kid_all, kst_all = kh[keep], kid_all[keep], kst_all[keep]
        return pa.table(
            {
                "kh": pa.array(kh, pa.int64()),
                "id": pa.array(kid_all, pa.int64()),
                "s": pa.array(kst_all, pa.string()),
            }
        )

    def _candidates(group: pa.Table) -> pa.Table:
        kh = group["kh"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        strs = np.asarray(group["s"].to_pylist(), dtype=object)
        order = np.lexsort((ids, kh))
        kh, ids, strs = kh[order], ids[order], strs[order]
        new = np.ones(kh.size, bool)
        new[1:] = kh[1:] != kh[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, kh.size))
        over = counts > max_key_bucket
        if over.any():
            logger.warning(
                "editdist_pairs: %d keys over max_key_bucket=%d "
                "(largest %d) — candidates truncated",
                int(over.sum()), max_key_bucket, int(counts.max()),
            )
            counts = np.minimum(counts, max_key_bucket)
        from ._pairs import segment_pairs

        ia, ib, _ = segment_pairs(counts, starts)
        if ia.size == 0:
            return _PAIR_SCHEMA.empty_table()
        ga, gb = ids[ia], ids[ib]
        sa, sb = strs[ia], strs[ib]
        lo = np.minimum(ga, gb)
        hi = np.maximum(ga, gb)
        keepmask = lo != hi
        lo, hi = lo[keepmask], hi[keepmask]
        sa, sb = sa[keepmask], sb[keepmask]
        key = lo * np.int64(1000003) + hi
        order2 = np.argsort(key, kind="stable")
        lo, hi, sa, sb = lo[order2], hi[order2], sa[order2], sb[order2]
        uniq = np.ones(lo.size, bool)
        uniq[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        lo, hi, sa, sb = lo[uniq], hi[uniq], sa[uniq], sb[uniq]
        ba = np.asarray([x.encode() for x in sa], dtype=object)
        bb = np.asarray([x.encode() for x in sb], dtype=object)
        ok = _verify_leq1(ba, bb) if k == 1 else _verify_leq_k(ba, bb, k)
        return pa.table(
            {
                "id_a": pa.array(lo[ok], pa.int64()),
                "id_b": pa.array(hi[ok], pa.int64()),
            }
        )

    verified = co_shuffle(ds.map_batches(_emit_keys, batch_format="pyarrow"),
                          "kh", _candidates)
    return distinct_reduce(verified, ["id_a", "id_b"])
