"""Deduplication stages for a documents/captions table.

solaris's only dedup is exact ``drop_duplicates`` on graph nodes
(``solaris/vector/graph.py``); a 100 TB training corpus needs the full
ladder: exact hashing, MinHash+LSH, SimHash, n-gram Jaccard, and
embedding-cosine near-dup.

Every keyed exchange is one ``_buckets.co_shuffle`` (SURVEY.md §2.7 /
§7.3):

- exact:   ``co_shuffle`` on a digest key, one Arrow ``group_by(h)``
  min-id / count per bucket (only digests and ids shuffle, never
  document bodies).
- MinHash: shingle -> signature inside ``map_batches`` (per-doc numpy),
  band keys exploded, ``co_shuffle`` on ``(band, key)``, in-bucket pair
  emission, pair-distinct, then the signature-agreement estimate.
- SimHash: 64-bit sign-sum signature; banding on 16-bit chunks for
  Hamming<=3 candidates.
- n-gram Jaccard: exact set intersection for co-located pairs.
- embedding cosine: blocked matmul against a broadcast normalized
  matrix (``ray.put`` once), or LSH buckets on ``(table, bucket)``.

The LSH emitters (MinHash, embedding, Hamming, and
``ann.hamming_topk_banded``) share one in-bucket step, ``_lsh_runs``:
runs of equal bucket keys, each capped at its ``max_bucket`` smallest
ids with one logged warning per call, and their pairs in slices of
bounded size.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, distinct_reduce, key_i64, per_key, top_k
from .text import WORD_SPLIT

_MERSENNE = np.uint64((1 << 61) - 1)


# --- exact ---------------------------------------------------------------

def _text(batch: pa.Table, text_col: str):
    """``batch[text_col]``; a null has no digest or shingles, so it
    raises ``ValueError`` naming the column."""
    a = batch[text_col]
    if a.null_count:
        raise ValueError(f"null in text column {text_col!r}")
    return a


def add_md5_key(batch: pa.Table, text_col: str = "text") -> pa.Table:
    vals = _text(batch, text_col).to_pylist()
    h = [hashlib.md5(v.encode("utf-8")).hexdigest() for v in vals]
    return batch.append_column("h", pa.array(h, pa.string()))


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Dataset -> (h, keep_id, n_dups): keep the min-id row per content.

    Matches ``SELECT md5(text) h, min(doc_id) keep_id, count(*) n_dups
    GROUP BY 1``.  Only (digest, id) go through the shuffle.
    """
    hashed = ds.map_batches(
        lambda b: add_md5_key(b, text_col).select(["h", id_col]),
        batch_format="pyarrow",
        batch_size=4096,
    )

    def _min_count(bucket: pa.Table) -> pa.Table:
        g = bucket.group_by("h").aggregate([(id_col, "min"), ([], "count_all")])
        return pa.table(
            {
                "h": g["h"],
                "keep_id": pc.cast(g[f"{id_col}_min"], pa.int64()),
                "n_dups": g["count_all"],
            }
        )

    return co_shuffle(hashed, "h", _min_count)


# --- shingling -----------------------------------------------------------

def word_shingles(text_arr: pa.ChunkedArray | pa.Array, n: int = 3) -> list[np.ndarray]:
    """Per-row arrays of distinct word n-gram shingle strings.

    Tokens = regexp split of trimmed text on \\s+ (same convention as
    stages.text and the SQL oracle).
    """
    toks_list = pc.split_pattern_regex(pc.utf8_trim_whitespace(text_arr), WORD_SPLIT)
    out = []
    for toks in toks_list.to_pylist():
        if len(toks) < n:
            out.append(np.empty(0, dtype=object))  # same as the SQL oracle: no shingle
            continue
        a = np.asarray(toks, dtype=object)
        sh = a[: len(a) - n + 1]
        for j in range(1, n):
            sh = sh + " " + a[j : len(a) - n + 1 + j]
        out.append(np.unique(sh))
    return out


def _crc_hash(shingles: np.ndarray) -> np.ndarray:
    """Shingle -> 64-bit hash: MD5 low 8 bytes little-endian.

    (MD5-based, not crc32, so the DuckDB oracle can recompute the
    identical values from ``md5(shingle)`` hex.)"""
    return np.asarray(
        [
            int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")
            for s in shingles
        ],
        dtype=np.uint64,
    )


# --- n-gram Jaccard (exact, co-located pairs) ----------------------------

def jaccard_adjacent(ds, n: int = 3, text_col: str = "text", id_col: str = "doc_id"):
    """Exact n-gram Jaccard for every (doc_id, doc_id+1) pair.

    Pattern: replicate each doc row to the pair keys it participates in
    (pair p holds docs p and p+1), ``co_shuffle`` on the pair key, exact
    set intersection per pair (``per_key``).  Integer outputs (inter, uni)
    so the DuckDB oracle matches bit-for-bit.
    """

    def _explode(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy()
        sh = word_shingles(_text(batch, text_col), n)
        pair, doc, role, shl = [], [], [], []
        for i, d in enumerate(ids.tolist()):
            for p, r in ((d, 0), (d - 1, 1)):
                if p < 0:
                    continue
                pair.append(p)
                doc.append(d)
                role.append(r)
                shl.append(sh[i].tolist())
        return pa.table(
            {
                "pair": pa.array(pair, pa.int64()),
                "doc_id": pa.array(doc, pa.int64()),
                "role": pa.array(role, pa.int8()),
                "shingles": pa.array(shl, pa.list_(pa.string())),
            }
        )

    exploded = ds.map_batches(_explode, batch_format="pyarrow", batch_size=2048)

    def _pair(group: pa.Table) -> pa.Table:
        if group.num_rows != 2:
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "inter": pa.array([], pa.int64()),
                    "uni": pa.array([], pa.int64()),
                }
            )
        role = group["role"].to_numpy()
        a_i, b_i = int(np.argmin(role)), int(np.argmax(role))
        sa = np.asarray(group["shingles"][a_i].as_py(), dtype=object)
        sb = np.asarray(group["shingles"][b_i].as_py(), dtype=object)
        inter = len(np.intersect1d(sa, sb))
        uni = len(sa) + len(sb) - inter
        return pa.table(
            {
                "doc_a": pa.array([int(group["doc_id"][a_i].as_py())], pa.int64()),
                "doc_b": pa.array([int(group["doc_id"][b_i].as_py())], pa.int64()),
                "inter": pa.array([inter], pa.int64()),
                "uni": pa.array([uni], pa.int64()),
            }
        )

    return co_shuffle(exploded, "pair", per_key("pair", _pair))


# --- LSH buckets: the one in-bucket step --------------------------------

# pairs one ``_lsh_runs`` slice holds at most, besides one row's
# partners: 512 KiB per int64 index array
_PAIR_SLICE = 1 << 16


def _lsh_runs(bucket: pa.Table, keys: list[str], id_col: str, max_bucket: int,
              what: str, side: str | None = None):
    """The in-bucket step of every LSH emitter: ``(rows, pairs)``.

    ``rows`` is ``bucket`` sorted by ``keys`` (then ``side``) then
    ``id_col``, holding only the runs of equal ``keys`` that make a
    pair, each capped at its ``max_bucket`` smallest ids.  Without
    ``side`` a run's rows pair among themselves, and a run of more than
    ``max_bucket`` rows is capped.  With ``side`` (0 or 1) each side-1
    row pairs with every side-0 row of its run; a run is capped when
    its pairs pass ``max_bucket``², and keeps the ``max_bucket``
    smallest ids of each side.  A capped run means a degenerate key;
    one warning per call gives the capped runs and the dropped rows.

    ``pairs`` yields ``(ia, ib)`` row indices into ``rows`` (without
    ``side`` ``ia < ib``; with it ``ia`` is the side-1 row), at least
    once, in slices of whole rows of at most ``_PAIR_SLICE`` pairs
    plus one row's partners, however large the bucket.
    """
    cols = [*keys, *([side] if side else []), id_col]
    rows = bucket.take(pc.sort_indices(bucket, [(c, "ascending") for c in cols]))
    new = np.zeros(rows.num_rows, bool)  # the first row of each run
    new[:1] = True
    for c in keys:
        k = rows[c].to_numpy()
        new[1:] |= k[1:] != k[:-1]
    run = np.cumsum(new) - 1
    m = np.bincount(run)
    if side:
        s1 = rows[side].to_numpy() == 1
        n1 = np.bincount(run[s1], minlength=len(m))
        pairs = (m - n1) * n1
        paired, over = pairs > 0, pairs > max_bucket * max_bucket
        grp = 2 * run + s1  # one side of one run
    else:
        paired, over, grp = m > 1, m > max_bucket, run
    rank = np.arange(len(grp)) - np.searchsorted(grp, grp)
    keep = paired[run] & (~over[run] | (rank < max_bucket))
    if over.any():
        logging.getLogger("solaris_ray.dedup").warning(
            "%s: %d runs over max_bucket=%d truncated, %d rows dropped",
            what, int(over.sum()), max_bucket, int((paired[run] & ~keep).sum()))
    rows, run = rows.filter(pa.array(keep)), run[keep]
    if side:
        s1 = s1[keep]
        grp = 2 * run + s1  # a side-1 row pairs with the side 0 of its run
        lo = np.where(s1, np.searchsorted(grp, 2 * run, "left"), 0)
        hi = np.where(s1, np.searchsorted(grp, 2 * run, "right"), 0)
    else:
        lo, hi = np.arange(len(run)) + 1, np.searchsorted(run, run, "right")
    return rows, _pair_slices(lo, hi)


def _pair_slices(lo: np.ndarray, hi: np.ndarray):
    """``(ia, ib)`` with each row ``ia`` paired with ``lo[ia]:hi[ia]``,
    in slices of whole rows: a new slice starts at each
    ``_PAIR_SLICE``-th pair.  Yields at least once."""
    c = hi - lo
    first = np.cumsum(c) - c  # each row's first pair
    cuts = np.searchsorted(first, np.arange(_PAIR_SLICE, int(c.sum()), _PAIR_SLICE))
    edges = np.r_[0, np.unique(np.r_[cuts, len(c)])]
    for r0, r1 in zip(edges[:-1], edges[1:]):
        cs = c[r0:r1]
        ia = np.repeat(np.arange(r0, r1), cs)
        yield ia, np.arange(ia.size) + np.repeat(lo[r0:r1] - np.cumsum(cs) + cs, cs)


# --- MinHash + LSH -------------------------------------------------------

class MinHasher:
    """map_batches body: text -> 64-perm MinHash signature + band keys.

    Permutations are the standard ``(a*h + b) mod p`` family with a
    seeded generator — identical on every worker.  Emits one row per
    (doc, band) with the band key (the LSH shuffle key) and the full
    signature (carried so buckets can estimate Jaccard without a
    second join).
    """

    def __init__(self, n_perm: int = 64, bands: int = 16, shingle_n: int = 3, seed: int = 42,
                 text_col: str = "text", id_col: str = "doc_id"):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm
        self.bands = bands
        self.rows_per_band = n_perm // bands
        self.shingle_n = shingle_n
        self.text_col, self.id_col = text_col, id_col

    def signature(self, shingles: np.ndarray) -> np.ndarray:
        if len(shingles) == 0:
            return np.full(self.n_perm, _MERSENNE, dtype=np.uint64)
        h = _crc_hash(shingles)
        # (n_sh, n_perm) permuted hashes, min over shingles
        ph = (h[:, None] * self.a[None, :] + self.b[None, :]) % _MERSENNE
        return ph.min(axis=0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy()
        shingles = word_shingles(_text(batch, self.text_col), self.shingle_n)
        n = len(ids)
        sigs = np.stack([self.signature(s) for s in shingles]) if n else np.empty((0, self.n_perm), dtype=np.uint64)
        r = self.rows_per_band
        # band key: polynomial combine of the band's signature slice
        weights = np.uint64(1099511628211) ** np.arange(r, dtype=np.uint64)
        doc, band, key, sig_out = [], [], [], []
        for bi in range(self.bands):
            sl = sigs[:, bi * r : (bi + 1) * r]
            bk = ((sl * weights[None, :]) % _MERSENNE).sum(axis=1) % _MERSENNE
            doc.append(ids)
            band.append(np.full(n, bi, dtype=np.int32))
            key.append(bk.astype(np.int64))
            sig_out.extend(sigs.astype(np.int64).tolist())
        if not doc:
            doc, band, key = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int32)], [np.empty(0, dtype=np.int64)]
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(doc), pa.int64()),
                "band": pa.array(np.concatenate(band), pa.int32()),
                "key": pa.array(np.concatenate(key), pa.int64()),
                "sig": pa.array(sig_out, pa.list_(pa.int64())),
            }
        )


class _SigStage(MinHasher):
    """map_batches body: text -> ONE (doc_id, sig) row per doc (no band
    fan-out, no signature duplication)."""

    def __call__(self, batch: pa.Table) -> pa.Table:  # type: ignore[override]
        ids = batch[self.id_col].to_numpy()
        shingles = word_shingles(_text(batch, self.text_col), self.shingle_n)
        sigs = [self.signature(s).astype(np.int64).tolist() for s in shingles]
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "sig": pa.array(sigs, pa.list_(pa.int64())),
            }
        )


def minhash_candidate_pairs(
    ds,
    n_perm: int = 64,
    bands: int = 16,
    shingle_n: int = 3,
    est_threshold: float = 0.5,
    max_bucket: int = 256,
    seed: int = 42,
    text_col: str = "text",
    id_col: str = "doc_id",
):
    """documents -> distinct near-dup candidate pairs with est. Jaccard.

    Shuffle-volume shape (round 4): signatures are computed ONCE per
    doc (``_SigStage``, materialized — shingling dominates, recompute
    would triple CPU); the LSH co-shuffle moves only (doc_id, band,
    key) rows (~20 B each, not the 64-int signature on every band row —
    an 8x volume cut); buckets emit id-only pairs; the Jaccard estimate
    is computed after a cross-band DISTINCT by joining each pair's two
    signatures back in (two bucketed hash joins over the sig table,
    O(docs) rows each).  The ``(band, key)`` buckets go through
    ``_lsh_runs``: a run of more than ``max_bucket`` docs keeps its
    ``max_bucket`` smallest doc ids, with a logged warning (a huge run
    means a degenerate key).  Pair estimate = fraction of agreeing
    signature positions (count/n_perm, exactly representable — output
    is bit-identical to the carry-sigs plan).
    """
    sigs = ds.map_batches(
        _SigStage(n_perm, bands, shingle_n, seed, text_col, id_col),
        batch_format="pyarrow",
        batch_size=1024,
    ).materialize()

    rows_per_band = n_perm // bands
    weights = np.uint64(1099511628211) ** np.arange(rows_per_band, dtype=np.uint64)

    def _band_keys(batch: pa.Table) -> pa.Table:
        from .ann import list_col_to_matrix

        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "band": pa.array([], pa.int32()),
                    "key": pa.array([], pa.int64()),
                }
            )
        sg = list_col_to_matrix(batch["sig"], np.int64).astype(np.uint64)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        doc, band, key = [], [], []
        for bi in range(bands):
            sl = sg[:, bi * rows_per_band : (bi + 1) * rows_per_band]
            bk = ((sl * weights[None, :]) % _MERSENNE).sum(axis=1) % _MERSENNE
            doc.append(ids)
            band.append(np.full(n, bi, dtype=np.int32))
            key.append(bk.astype(np.int64))
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(doc), pa.int64()),
                "band": pa.array(np.concatenate(band), pa.int32()),
                "key": pa.array(np.concatenate(key), pa.int64()),
            }
        )

    banded = sigs.map_batches(_band_keys, batch_format="pyarrow")

    def _bucket_ids(bucket: pa.Table) -> pa.Table:
        rows, pairs = _lsh_runs(bucket, ["band", "key"], "doc_id", max_bucket, "minhash")
        ids = rows["doc_id"].to_numpy()
        return pa.concat_tables([pa.table({"doc_a": pa.array(ids[ia], pa.int64()),
                                           "doc_b": pa.array(ids[ib], pa.int64())})
                                 for ia, ib in pairs])

    # cross-band distinct BEFORE the sig joins (a pair colliding in k
    # bands would otherwise join its signatures k times)
    cand = distinct_reduce(co_shuffle(banded, ["band", "key"], _bucket_ids), ["doc_a", "doc_b"])

    out_schema = pa.schema(
        [("doc_a", pa.int64()), ("doc_b", pa.int64()),
         ("max(est_jaccard)", pa.float64())]
    )

    # sig tables below BROADCAST_LIMIT ship ONCE via ray.put and BOTH
    # sides probe map-side in a single fused attach+estimate pass (no
    # all-to-all, one execution instead of two chained joins); above
    # it the bucketed co-shuffle joins run as before — rows are
    # bit-identical either way.  Strategy picked from the materialized
    # sig count (metadata, free).
    from .relational import BROADCAST_LIMIT, hash_join

    if sigs.count() <= BROADCAST_LIMIT:
        import ray

        from .ann import list_col_to_matrix

        blocks = [b for b in ray.get(sigs.to_arrow_refs()) if b.num_rows]
        sig_tbl = pa.concat_tables(blocks)
        ids_np = sig_tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = list_col_to_matrix(sig_tbl["sig"], np.int64)
        order = np.argsort(ids_np)
        lookup_ref = ray.put((ids_np[order], mat[order]))

        def _est_broadcast(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return out_schema.empty_table()
            ids_s, mat_s = ray.get(lookup_ref)
            da = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
            db = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
            sa = mat_s[np.searchsorted(ids_s, da)]
            sb = mat_s[np.searchsorted(ids_s, db)]
            est = (sa == sb).mean(axis=1)
            keep = est >= est_threshold
            return pa.table(
                {
                    "doc_a": pa.array(da[keep], pa.int64()),
                    "doc_b": pa.array(db[keep], pa.int64()),
                    # column name kept from the old carry-sigs plan
                    # (per-band Max of an identical value) for parity
                    "max(est_jaccard)": pa.array(est[keep], pa.float64()),
                }
            )

        return cand.map_batches(_est_broadcast, batch_format="pyarrow")

    sig_a = sigs.map_batches(
        lambda b: pa.table({"ida": b["doc_id"], "sig_a": b["sig"]}),
        batch_format="pyarrow",
    )
    sig_b = sigs.map_batches(
        lambda b: pa.table({"idb": b["doc_id"], "sig_b": b["sig"]}),
        batch_format="pyarrow",
    )
    j = hash_join(
        hash_join(cand, sig_a, "doc_a", "ida", strategy="shuffle"),
        sig_b, "doc_b", "idb", strategy="shuffle",
    )

    def _estimate(batch: pa.Table) -> pa.Table:
        from .ann import list_col_to_matrix

        if batch.num_rows == 0:
            return out_schema.empty_table()
        sa = list_col_to_matrix(batch["sig_a"], np.int64)
        sb = list_col_to_matrix(batch["sig_b"], np.int64)
        est = (sa == sb).mean(axis=1)
        keep = est >= est_threshold
        return pa.table(
            {
                "doc_a": pc.cast(batch["doc_a"], pa.int64()).filter(pa.array(keep)),
                "doc_b": pc.cast(batch["doc_b"], pa.int64()).filter(pa.array(keep)),
                "max(est_jaccard)": pa.array(est[keep], pa.float64()),
            }
        )

    return j.map_batches(_estimate, batch_format="pyarrow")


# --- SimHash -------------------------------------------------------------

def simhash64(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """(doc_id, simhash, band0..band3) — 64-bit SimHash + 16-bit bands.

    Token hash = MD5 low 8 bytes; signature bit b is the sign of the
    sum over tokens of (+1 if bit set else -1).  Hamming-distance<=3
    candidates collide on at least one of the four 16-bit bands
    (pigeonhole), so a shuffle on ``band_i`` finds them without N^2 work.
    """
    ids = batch[id_col]
    toks_list = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(batch[text_col]), WORD_SPLIT
    ).to_pylist()
    sims = np.zeros(len(toks_list), dtype=np.uint64)
    for i, toks in enumerate(toks_list):
        if not toks:
            continue
        hs = np.asarray(
            [int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little") for t in set(toks)],
            dtype=np.uint64,
        )
        bits = ((hs[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        score = (2 * bits - 1).sum(axis=0)
        sims[i] = np.packbits((score > 0)[::-1]).view(">u8")[0]
    cols = {id_col: ids, "simhash": pa.array(sims.astype(np.int64), pa.int64())}
    for b in range(4):
        cols[f"band{b}"] = pa.array(
            ((sims >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64), pa.int64()
        )
    return pa.table(cols)


# --- embedding cosine near-dup ------------------------------------------

class CosinePairFinder:
    """map_batches body: rows x broadcast normalized matrix -> pairs.

    ``mat_ref`` is a ``ray.put`` of (ids, normalized float64 matrix).
    Each batch computes a (batch x all) matmul and emits pairs with
    round(sim, 6) >= tau and other_id > row_id (each pair once).
    At 10^12 scale the broadcast side becomes the IVF/LSH-bucketed
    variant (stages.ann); the matmul kernel is identical.
    """

    def __init__(self, mat_ref, tau: float, id_col: str = "vec_id", vec_col: str = "embedding"):
        import ray

        self.all_ids, self.mat = mat_ref if isinstance(mat_ref, tuple) else ray.get(mat_ref)
        self.tau = tau
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .ann import list_col_to_matrix

        ids = batch[self.id_col].to_numpy()
        V = list_col_to_matrix(batch[self.vec_col], np.float64).copy()
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        sims = V @ self.mat.T
        r6 = np.round(sims, 6)
        keep = (r6 >= self.tau) & (self.all_ids[None, :] > ids[:, None])
        ri, ci = np.nonzero(keep)
        return pa.table(
            {
                "id_a": pa.array(ids[ri], pa.int64()),
                "id_b": pa.array(self.all_ids[ci], pa.int64()),
                "sim6": pa.array(r6[ri, ci], pa.float64()),
            }
        )


def embedding_neardup_pairs_bucketed(ds, tau: float = 0.4, n_planes: int = 8,
                                     n_tables: int = 4, seed: int = 42,
                                     id_col: str = "vec_id", vec_col: str = "embedding",
                                     max_bucket: int = 4096,
                                     collapse_exact: bool = True):
    """Both-sides-large cosine near-dup: NO broadcast matrix.

    Sign-random-projection buckets per hash table (``co_shuffle`` on
    ``(t, bucket)``); exact pairwise cosine INSIDE each bucket; distinct
    pairs via a final ``distinct_reduce``.  Near-identical vectors share
    buckets with probability (1 - theta/pi)^n_planes per table, so multiple tables
    make the miss rate multiplicative — recall measured in tests
    against the exact broadcast path.  Scale shape: only (table,
    bucket, id, vector) rows shuffle; no structure ever fits-on-one-
    node; the replication factor is exactly ``n_tables``.

    Scale hardening (a dedup pass concentrates duplicate mass into one
    bucket BY DESIGN, so the bucket emitter must be bounded):

    - ``collapse_exact``: bitwise-identical vectors are collapsed to one
      representative (min id) BEFORE LSH bucketing via a digest top_k;
      each duplicate class emits star pairs (rep, member, sim=1.0)
      instead of the O(k^2) clique — 1 M identical vectors cost 1 M-1
      rows, not 5*10^11.  Member-to-other pairs are derivable
      transitively through the representative.  With no exact
      duplicates in the input this is a no-op and output is unchanged.
    - ``max_bucket``: a ``(t, bucket)`` run of more than this many
      vectors keeps its ``max_bucket`` smallest ids, with a LOGGED
      warning (``_lsh_runs``, as for MinHash); a run that big after
      exact-collapse means a degenerate projection key, and
      O(max_bucket^2) bounds the emitter.
    """
    from .ann import hyperplanes, list_col_to_matrix, lsh_code

    if collapse_exact:
        ds, star_pairs = _collapse_exact_vectors(ds, id_col, vec_col)
    else:
        star_pairs = None

    planes_cache: dict[int, list[np.ndarray]] = {}

    def _tag(batch: pa.Table) -> pa.Table:
        V = list_col_to_matrix(batch[vec_col], np.float64)
        dim = V.shape[1] if V.size else 0
        if dim not in planes_cache:
            planes_cache[dim] = [
                hyperplanes(dim, n_planes, seed if t == 0 else seed + 1000 * t)
                for t in range(n_tables)
            ]
        n = batch.num_rows
        ids = batch[id_col].to_numpy().astype(np.int64)
        tables, buckets, oids, vecs = [], [], [], []
        norm = V / np.where(
            np.linalg.norm(V, axis=1, keepdims=True) == 0, 1.0,
            np.linalg.norm(V, axis=1, keepdims=True),
        )
        for t, planes in enumerate(planes_cache[dim]):
            code = lsh_code(norm, planes)
            tables.append(np.full(n, t, dtype=np.int32))
            buckets.append(code)
            oids.append(ids)
            vecs.append(norm)
        return pa.table(
            {
                "t": pa.array(np.concatenate(tables), pa.int32()),
                "bucket": pa.array(np.concatenate(buckets), pa.int64()),
                id_col: pa.array(np.concatenate(oids), pa.int64()),
                "nvec": pa.array(
                    np.concatenate(vecs).tolist(), pa.list_(pa.float64())
                ),
            }
        )

    tagged = ds.map_batches(_tag, batch_format="pyarrow", batch_size=4096)

    def _bucket(bucket: pa.Table) -> pa.Table:
        rows, pairs = _lsh_runs(bucket, ["t", "bucket"], id_col, max_bucket, "embedding LSH")
        ids = rows[id_col].to_numpy()
        V = list_col_to_matrix(rows["nvec"], np.float64)
        out = []
        for ia, ib in pairs:
            sim = np.round(np.einsum("ij,ij->i", V[ia], V[ib]), 6)
            keep = (sim >= tau) & (ids[ia] != ids[ib])
            out.append(pa.table({"doc_a": pa.array(ids[ia[keep]], pa.int64()),
                                 "doc_b": pa.array(ids[ib[keep]], pa.int64()),
                                 "sim6": pa.array(sim[keep], pa.float64())}))
        return pa.concat_tables(out)

    pairs = co_shuffle(tagged, ["t", "bucket"], _bucket)
    if star_pairs is not None:
        pairs = pairs.union(star_pairs)
    # bucketed vectorized max-reduce (Ray's hash aggregate costs
    # ~100us CPU per pair group); output schema kept identical
    return distinct_reduce(
        pairs, ["doc_a", "doc_b"], aggs={"sim6": "max"}
    ).map_batches(
        lambda b: pa.table({"doc_a": b["doc_a"], "doc_b": b["doc_b"],
                            "max(sim6)": b["sim6"]}),
        batch_format="pyarrow",
    )


def _collapse_exact_vectors(ds, id_col: str, vec_col: str):
    """Collapse bitwise-identical vectors to one representative each.

    Returns ``(reps, star_pairs)``: ``reps`` has the input schema with
    one row (min id) per distinct vector value; ``star_pairs`` is a
    (doc_a, doc_b, sim6=1.0) Dataset linking each representative to its
    duplicate class members.  Two independent lazy pipelines: the
    star-pair side shuffles only (digest, id) — tiny rows — and links
    the first id of each digest run to the rest, while the rep side (a
    k = 1 ``top_k`` on the digest, by id) carries vectors.  No
    materialization; with no exact duplicates ``reps`` re-emits every
    input row and ``star_pairs`` is empty, so downstream output is
    unchanged.
    """

    def _digest(batch: pa.Table) -> pa.Table:
        from .ann import list_col_to_matrix

        V = np.ascontiguousarray(list_col_to_matrix(batch[vec_col], np.float64))
        keys = [hashlib.md5(V[i].tobytes()).digest()[:8] for i in range(V.shape[0])]
        dkey = np.frombuffer(b"".join(keys), dtype=">u8").astype(np.int64) if keys else np.array([], np.int64)
        return batch.append_column("dkey", pa.array(dkey, pa.int64()))

    keyed = ds.map_batches(_digest, batch_format="pyarrow", batch_size=4096)

    reps = top_k(keyed, "dkey", [(id_col, "ascending")], 1).map_batches(
        lambda b: b.drop_columns(["dkey", "rank"]), batch_format="pyarrow")

    def _stars(bucket: pa.Table) -> pa.Table:
        rows = bucket.sort_by([("dkey", "ascending"), (id_col, "ascending")])
        k = rows["dkey"].to_numpy()
        ids = rows[id_col].to_numpy().astype(np.int64)
        lead = np.r_[True, k[1:] != k[:-1]]
        rep_id = ids[lead][np.cumsum(lead) - 1]
        return pa.table({"doc_a": pa.array(rep_id[~lead], pa.int64()),
                         "doc_b": pa.array(ids[~lead], pa.int64()),
                         "sim6": pa.array(np.ones(len(ids) - lead.sum()), pa.float64())})

    stars = co_shuffle(keyed.select_columns(["dkey", id_col]), "dkey", _stars)
    return reps, stars


def embedding_neardup_pairs(ds, embeddings_table: pa.Table, tau: float = 0.4,
                            id_col: str = "vec_id", vec_col: str = "embedding"):
    import ray

    from ..runtime import stateful_map

    from .ann import list_col_to_matrix

    ids = embeddings_table[id_col].to_numpy().astype(np.int64)
    M = list_col_to_matrix(embeddings_table[vec_col], np.float64).copy()
    M /= np.linalg.norm(M, axis=1, keepdims=True)
    ref = ray.put((ids, M))
    return stateful_map(
        ds, CosinePairFinder,
        {"mat_ref": ref, "tau": tau, "id_col": id_col, "vec_col": vec_col},
        batch_size=2048,
    )


# --- Hamming (pHash) near-dup --------------------------------------------

def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR; numpy<2 has no bitwise_count)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def hamming_neardup_pairs(
    ds,
    hash_col: str = "phash",
    id_col: str = "image_id",
    max_dist: int = 3,
    n_bands: int = 4,
    max_bucket: int = 4096,
):
    """Perceptual-hash near-duplicate pairs by banded Hamming distance.

    The input-hint image table carries ``phash:int64``; near-dup image
    detection is Hamming distance over it.  Pigeonhole banding: a
    64-bit hash splits into ``n_bands`` equal bands — two hashes with
    distance <= ``max_dist`` < n_bands MUST agree on at least one
    band, so ``co_shuffle`` on ``(band, key)`` brings every candidate
    pair into some shared bucket (16-byte rows, never pixels).
    In-bucket distances are one vectorized XOR + SWAR popcount; a run
    of more than ``max_bucket`` hashes keeps its ``max_bucket``
    smallest ids WITH a logged warning (``_lsh_runs``, as for MinHash;
    a huge run means a degenerate band value — pre-collapse exact
    duplicates upstream if the corpus is dup-heavy).  A null hash
    raises ``ValueError`` naming ``hash_col``.

    Returns distinct (id_a, id_b, dist) with id_a < id_b.
    """
    if max_dist >= n_bands:
        raise ValueError("pigeonhole requires max_dist < n_bands")
    band_bits = 64 // n_bands
    band_mask = np.uint64((1 << band_bits) - 1)

    def _bander(batch: pa.Table) -> pa.Table:
        h = key_i64(batch, hash_col).view(np.uint64)
        ids = batch[id_col].to_numpy()
        n = len(h)
        doc = np.tile(ids, n_bands)
        hsh = np.tile(h, n_bands)
        band = np.repeat(np.arange(n_bands, dtype=np.int32), n)
        key = np.concatenate(
            [
                ((h >> np.uint64(band_bits * bi)) & band_mask).astype(np.int64)
                for bi in range(n_bands)
            ]
        ) if n else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                id_col: pa.array(doc),
                "h": pa.array(hsh.astype(np.int64), pa.int64()),
                "band": pa.array(band, pa.int32()),
                "key": pa.array(key, pa.int64()),
            }
        )

    banded = ds.map_batches(_bander, batch_format="pyarrow", batch_size=8192)

    def _bucket(bucket: pa.Table) -> pa.Table:
        rows, pairs = _lsh_runs(bucket, ["band", "key"], id_col, max_bucket, "hamming")
        doc = rows[id_col].to_numpy()
        h = rows["h"].to_numpy().view(np.uint64)
        out = []
        for ia, ib in pairs:
            dist = _popcount64(h[ia] ^ h[ib])
            keep = dist <= max_dist
            out.append(pa.table({"id_a": pa.array(doc[ia[keep]], pa.int64()),
                                 "id_b": pa.array(doc[ib[keep]], pa.int64()),
                                 "dist": pa.array(dist[keep], pa.int64())}))
        return pa.concat_tables(out)

    pairs = co_shuffle(banded, ["band", "key"], _bucket)
    return distinct_reduce(
        pairs, ["id_a", "id_b"], aggs={"dist": "min"}
    ).map_batches(
        lambda b: pa.table({"id_a": b["id_a"], "id_b": b["id_b"],
                            "min(dist)": b["dist"]}),
        batch_format="pyarrow",
    )


class _CentroidAssign:
    """Nearest centroid of each vector by raw dot product (argmax tie
    -> lowest cluster id); carries the vector on as ``emb``."""

    def __init__(self, centroids_ref, id_col: str, vec_col: str):
        import ray

        self.C = ray.get(centroids_ref)
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .ann import list_col_to_matrix

        V = list_col_to_matrix(batch[self.vec_col], np.float64)
        if V.shape[0] == 0:
            return pa.schema(
                [(self.id_col, pa.int64()), ("cluster", pa.int64()),
                 ("emb", pa.list_(pa.float64()))]
            ).empty_table()
        cl = np.argmax(V @ self.C.T, axis=1).astype(np.int64)
        return pa.table(
            {
                self.id_col: pc.cast(batch[self.id_col], pa.int64()),
                "cluster": pa.array(cl, pa.int64()),
                "emb": pa.array(V.tolist(), pa.list_(pa.float64())),
            }
        )


def semantic_dedup(ds, centroids: np.ndarray, tau: float = 0.95,
                   id_col: str = "vec_id", vec_col: str = "embedding",
                   chunk: int = 2048, precollapse: bool = False):
    """SemDeDup (Abbas et al., arXiv:2303.09540): cluster-then-dedup.

    1. Every vector is assigned to its nearest centroid by raw dot
       product (broadcast matrix, one matmul per batch; argmax tie ->
       lowest cluster id, matching the SQL oracle's ``ORDER BY dp
       DESC, l``).
    2. One ``co_shuffle`` on the cluster; inside each cluster a
       vector is DROPPED when any LOWER-id cluster member has
       ``round(cosine, 6) >= tau`` (keep-first-by-id, the paper's
       keep-one-per-semantic-class rule with a deterministic
       representative).

    Output: ``(vec_id, cluster, keep)`` for every input row.

    Scale notes: in-cluster work is O(m^2) FLOPs by contract (the
    paper's knob is n_clusters proportional to corpus size, keeping m
    bounded); memory stays bounded at ``chunk x m`` by chunked matmuls, so
    a skewed cluster degrades to more flops, never to OOM.  Set
    ``precollapse=True`` to route bitwise-identical vectors through
    ``_collapse_exact_vectors`` first so mass duplication cannot
    concentrate in one cluster (members of a collapsed class inherit
    keep=0 except the representative).  The reference repo has no
    counterpart (training-data op, geospatial reference).
    """
    import ray

    from ..runtime import stateful_map

    C_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    stars = None
    if precollapse:
        ds, stars = _collapse_exact_vectors(ds, id_col, vec_col)

    assigned = stateful_map(
        ds, _CentroidAssign,
        {"centroids_ref": C_ref, "id_col": id_col, "vec_col": vec_col},
        batch_size=4096,
    )

    def _cluster(group: pa.Table) -> pa.Table:
        m = group.num_rows
        ids = group[id_col].to_numpy()
        order = np.argsort(ids, kind="stable")
        ids = ids[order].astype(np.int64)
        V = np.ascontiguousarray(
            np.asarray(group["emb"].to_pylist(), dtype=np.float64)[order]
        )
        norms = np.linalg.norm(V, axis=1)
        norms[norms == 0] = 1.0
        Vn = V / norms[:, None]
        keep = np.ones(m, dtype=bool)
        for a in range(0, m, chunk):
            b = min(a + chunk, m)
            if a == 0 and b == 1:
                continue
            S = np.round(Vn[a:b] @ Vn[:b].T, 6)  # (b-a, b)
            rows = np.arange(a, b)[:, None]
            cols = np.arange(b)[None, :]
            S[cols >= rows] = -2.0  # only lower-id witnesses count
            keep[a:b] = S.max(axis=1) < tau
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "cluster": pa.array(
                    np.full(m, group["cluster"][0].as_py()), pa.int64()
                ),
                "keep": pa.array(keep.astype(np.int64), pa.int64()),
            }
        )

    out = co_shuffle(assigned, "cluster", per_key("cluster", _cluster))
    if stars is None:
        return out
    return out, stars
