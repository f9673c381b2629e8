"""Approximate-nearest-neighbor search over an embedding column.

Driver-mandated training-data op (no reference counterpart).  Two
paths:

- ``brute_topk``: exact cosine top-k — the queries (a small matrix)
  are broadcast with ``ray.put``; every batch computes a (q x batch)
  float64 matmul and emits its *local* top-k candidate rows; one
  ``_buckets.top_k`` on query_id merges the partials.  This is the scalable
  partial-topk/combine shape: the full corpus streams, only q*k rows
  per block shuffle.
- ``lsh_topk``: random-hyperplane LSH — vectors bucketed by a seeded
  sign pattern, queries probe only matching buckets (plus optional
  multi-probe flips).  Sub-linear scale path; recall measured in tests
  against ``brute_topk``.

Ranking order is pinned to (round(sim, 6) desc, vec_id asc) — rounding
collapses float-noise ties so ranking is reproducible across kernels
(numpy, DuckDB oracle).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, distinct_reduce, key_i64, top_k

TOPK_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("vec_id", pa.int64()),
        ("sim6", pa.float64()),
    ]
)


def _normalize(M: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(M, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return M / n


def list_col_to_matrix(col, dtype=None):
    """Arrow list<float> column -> (n, dim) numpy matrix, zero-copy on
    the flat values (to_pylist per row is 5-10x slower)."""
    import numpy as np
    import pyarrow as pa

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    if isinstance(arr, pa.ChunkedArray):
        arr = pa.concat_arrays(arr.chunks)
    offsets = arr.offsets.to_numpy()
    widths = np.diff(offsets)
    if len(widths) == 0:
        return np.empty((0, 0))
    dim = int(widths[0])
    assert (widths == dim).all(), "ragged embedding column"
    vals = arr.values.to_numpy(zero_copy_only=False)
    m = vals[offsets[0] : offsets[0] + len(widths) * dim].reshape(len(widths), dim)
    return m.astype(dtype) if dtype is not None else m



class BruteScorer:
    """map_batches body: emit per-batch local top-k candidates.

    Optional metadata filtering (``group_col``): each query carries a
    group id and only corpus rows with the SAME group id may match —
    the search-within-category pattern (filtered ANN).  The constraint
    is applied as a mask on the score matrix before the local top-k,
    so filtering costs one vectorized compare, not a second pass."""

    def __init__(self, queries_ref, k: int, id_col: str = "vec_id", vec_col: str = "embedding",
                 exclude_self: bool = True, group_col: str | None = None):
        import ray

        obj = queries_ref if isinstance(queries_ref, tuple) else ray.get(queries_ref)
        if len(obj) == 3:
            self.q_ids, self.Q, self.q_groups = obj
        else:
            self.q_ids, self.Q = obj
            self.q_groups = None
        self.k = k
        self.id_col, self.vec_col = id_col, vec_col
        self.exclude_self = exclude_self
        self.group_col = group_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy().astype(np.int64)
        V = _normalize(list_col_to_matrix(batch[self.vec_col], np.float64))
        sims = np.round(self.Q @ V.T, 6)  # (nq, nb)
        if self.exclude_self:
            sims[self.q_ids[:, None] == ids[None, :]] = -np.inf
        if self.group_col is not None and self.q_groups is not None:
            g = batch[self.group_col].to_numpy().astype(np.int64)
            sims[self.q_groups[:, None] != g[None, :]] = -np.inf
        nb = sims.shape[1]
        kk = min(self.k, nb)
        # local top-k per query; candidates TIED with the kth similarity
        # must all survive to the merge (the global (sim, vec_id) order
        # can prefer a tied candidate this batch would otherwise drop)
        if nb > kk:
            kth = np.partition(-sims, kk - 1, axis=1)[:, kk - 1]
            keep = (-sims) <= kth[:, None]
        else:
            keep = np.ones_like(sims, dtype=bool)
        qi_idx, vi_idx = np.nonzero(keep)
        qi = self.q_ids[qi_idx]
        vi = ids[vi_idx]
        sv = sims[qi_idx, vi_idx]
        ok = np.isfinite(sv)
        return pa.table(
            {
                "query_id": pa.array(qi[ok], pa.int64()),
                "vec_id": pa.array(vi[ok], pa.int64()),
                "sim6": pa.array(sv[ok], pa.float64()),
            }
        )


def _final_topk(partial, k: int):
    """Merge the per-batch candidates: (sim6 desc, vec_id asc) per query."""
    out = top_k(partial, "query_id", [("sim6", "descending"), ("vec_id", "ascending")], k)
    return out.map_batches(lambda b: b.select(TOPK_SCHEMA.names).cast(TOPK_SCHEMA),
                           batch_format="pyarrow")


def brute_topk(ds, queries_ids: np.ndarray, queries_mat: np.ndarray, k: int = 5,
               id_col: str = "vec_id", vec_col: str = "embedding",
               batch_size: int = 4096):
    """Exact cosine top-k of each query over the whole Dataset."""
    import ray

    from ..runtime import stateful_map

    ref = ray.put((np.asarray(queries_ids, dtype=np.int64), _normalize(np.asarray(queries_mat, dtype=np.float64))))
    partial = stateful_map(
        ds, BruteScorer,
        {"queries_ref": ref, "k": k, "id_col": id_col, "vec_col": vec_col},
        batch_size=batch_size,
    )
    return _final_topk(partial, k)


def filtered_topk(ds, queries_ids: np.ndarray, queries_mat: np.ndarray,
                  queries_groups: np.ndarray, k: int = 5,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  group_col: str = "label", batch_size: int = 4096):
    """Metadata-filtered exact ANN: each query's top-k is restricted to
    corpus rows whose ``group_col`` equals the query's group id — the
    search-within-category / predicate-constrained retrieval pattern.

    Same streaming shape as ``brute_topk`` (corpus streams, only q x k
    candidate rows shuffle); the group constraint is a mask on the
    per-batch score matrix.  Callers should ALSO push the coarse
    predicate into the read when the query group set is small
    (``filter=pc.field(group_col).isin(groups)``) so non-candidate
    rows never leave storage — the mask then only enforces per-query
    exactness within the pre-filtered stream.
    """
    import ray

    from ..runtime import stateful_map

    ref = ray.put((
        np.asarray(queries_ids, dtype=np.int64),
        _normalize(np.asarray(queries_mat, dtype=np.float64)),
        np.asarray(queries_groups, dtype=np.int64),
    ))
    partial = stateful_map(
        ds, BruteScorer,
        {"queries_ref": ref, "k": k, "id_col": id_col,
         "vec_col": vec_col, "group_col": group_col},
        batch_size=batch_size,
    )
    return _final_topk(partial, k)


# --- LSH-bucketed variant (scale path) ----------------------------------

def hyperplanes(dim: int, n_planes: int = 12, seed: int = 42) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n_planes, dim))


def lsh_code(M: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (M @ planes.T) > 0
    return (bits @ (1 << np.arange(planes.shape[0], dtype=np.int64))).astype(np.int64)


def lsh_topk(ds, queries_ids: np.ndarray, queries_mat: np.ndarray, k: int = 5,
             n_planes: int = 12, n_probe_flips: int = 2, seed: int = 42,
             id_col: str = "vec_id", vec_col: str = "embedding", n_tables: int = 1):
    """LSH-bucketed approximate top-k.

    Vectors tagged with their bucket per hash table; each query probes
    its own bucket plus all 1-/2-bit flips (multi-probe).  A vector is
    a candidate when it matches ANY table's probe set (``n_tables`` > 1
    is the standard recall upgrade: independent plane sets make the
    miss probability multiplicative).  The Dataset is filtered to
    candidates before the brute kernel, so compute scales with bucket
    occupancy, not corpus size.  Recall vs ``brute_topk`` and the
    multi-table recall ordering are measured in tests.
    """
    dim = np.asarray(queries_mat).shape[1]
    # table 0 keeps the historical seed so single-table results (and
    # the SQL oracle) are unchanged
    planes_list = [
        hyperplanes(dim, n_planes, seed if t == 0 else seed + 1000 * t)
        for t in range(n_tables)
    ]
    Q = _normalize(np.asarray(queries_mat, dtype=np.float64))
    probe_arrs = []
    for planes in planes_list:
        qcodes = lsh_code(Q, planes)
        probes = {int(c) for c in qcodes}
        if n_probe_flips >= 1:
            for c in qcodes:
                for b in range(n_planes):
                    probes.add(int(c) ^ (1 << b))
                    if n_probe_flips >= 2:
                        for b2 in range(b + 1, n_planes):
                            probes.add(int(c) ^ (1 << b) ^ (1 << b2))
        probe_arrs.append(pa.array(sorted(probes), pa.int64()))

    import pyarrow.compute as pc

    def _filter(b: pa.Table) -> pa.Table:
        V = _normalize(list_col_to_matrix(b[vec_col], np.float64))
        keep = None
        for planes, probe_arr in zip(planes_list, probe_arrs):
            m = pc.is_in(pa.array(lsh_code(V, planes), pa.int64()), value_set=probe_arr)
            keep = m if keep is None else pc.or_(keep, m)
        return b.filter(keep)

    filtered = ds.map_batches(_filter, batch_format="pyarrow", batch_size=4096)
    return brute_topk(filtered, queries_ids, queries_mat, k, id_col, vec_col)


# --- IVF variant (k-means inverted lists, the other scale path) ----------

def kmeans_centroids(X: np.ndarray, k: int, iters: int = 10, seed: int = 42) -> np.ndarray:
    """Deterministic spherical k-means on normalized vectors (seeded
    init; cosine assignment).  Small input — this trains on a SAMPLE."""
    Xn = _normalize(np.asarray(X, dtype=np.float64))
    rng = np.random.default_rng(seed)
    C = Xn[rng.choice(len(Xn), size=min(k, len(Xn)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(Xn @ C.T, axis=1)
        newC = np.vstack([
            Xn[assign == j].mean(axis=0) if (assign == j).any() else C[j]
            for j in range(len(C))
        ])
        C = _normalize(newC)
    return C


def hash_sample_table(ds, sample_size: int, id_col: str = "vec_id",
                      columns=None) -> pa.Table:
    """Deterministic uniform sample as a small driver-side Table.

    A head sample (``ds.limit``) is storage-order-biased: corpora are
    usually time/source-clustered on disk, so training structures on
    the head mis-covers the tail.  This draws by Knuth-hash of the id
    column inside a ``map_batches`` filter (the ``joins.py`` hot-cell
    histogram idiom), so every block contributes proportionally and the
    sample is stable across runs/partitionings.  ``ds.count()`` is
    metadata-only for file sources; the slight oversample (x1.05) is
    trimmed after collection, never by a head ``limit`` (which would
    re-introduce order bias among the sampled rows).
    """
    import ray

    if columns is not None:
        ds = ds.select_columns(columns)
    cnt = ds.count()
    rate = min(1.0, (1.05 * sample_size) / max(1, cnt))
    if rate < 1.0:
        thresh = np.uint64(max(1, int(rate * (1 << 20))))

        def _sample(b: pa.Table) -> pa.Table:
            ids = b[id_col].to_numpy().astype(np.uint64)
            keep = (ids * np.uint64(2654435761)) % np.uint64(1 << 20) < thresh
            return b.filter(pa.array(keep))

        ds = ds.map_batches(_sample, batch_format="pyarrow", batch_size=4096)
    parts = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    tbl = pa.concat_tables(parts) if parts else ds.schema().base_schema.empty_table()
    return tbl.slice(0, sample_size) if tbl.num_rows > sample_size else tbl


def seeded_centroids(dim: int, n_lists: int, seed: int = 7) -> np.ndarray:
    """Deterministic normalized gaussian centroid matrix — shared by the
    SQL-oracled ``ivf_ann`` gate query and its DuckDB oracle builder
    (data-independent so the oracle can inline the identical values)."""
    rng = np.random.default_rng(seed)
    return _normalize(rng.normal(size=(n_lists, dim)))


def ivf_topk(ds, queries_ids: np.ndarray, queries_mat: np.ndarray, k: int = 5,
             n_lists: int = 16, nprobe: int = 4, sample_size: int = 2048,
             seed: int = 42, id_col: str = "vec_id", vec_col: str = "embedding",
             centroids: np.ndarray | None = None,
             sample_mode: str = "hash"):
    """IVF approximate top-k: k-means inverted lists + nprobe probing.

    Centroids train on a SAMPLE (driver-side, tiny — the standard IVF
    recipe) drawn uniformly from the WHOLE corpus by deterministic id
    hashing (``hash_sample_table``; ``sample_mode="head"`` keeps the
    biased first-blocks draw for A/B tests only).  Every vector is
    assigned to its nearest centroid in one streaming pass; each query
    probes its ``nprobe`` closest lists and the brute kernel scores
    only those lists' members.  Compute scales with probed-list
    occupancy ~ nprobe/n_lists of the corpus.  Recall vs ``brute_topk``
    is measured in tests; raise nprobe for recall, n_lists for
    selectivity.  ``centroids`` overrides training entirely (used by
    the SQL-oracled gate query, which inlines the same matrix).
    """
    import pyarrow.compute as pc

    if centroids is not None:
        C = _normalize(np.asarray(centroids, dtype=np.float64))
    else:
        if sample_mode == "head":
            import ray

            sample_tbl = pa.concat_tables(
                [b for b in ray.get(ds.limit(sample_size).to_arrow_refs()) if b.num_rows]
            )
        else:
            sample_tbl = hash_sample_table(
                ds, sample_size, id_col=id_col, columns=[id_col, vec_col]
            )
        S = list_col_to_matrix(sample_tbl[vec_col], np.float64)
        C = kmeans_centroids(S, n_lists, seed=seed)

    Q = _normalize(np.asarray(queries_mat, dtype=np.float64))
    probe_lists = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]
    probe_set = pa.array(sorted({int(v) for v in probe_lists.ravel()}), pa.int64())

    def _filter(b: pa.Table) -> pa.Table:
        V = _normalize(list_col_to_matrix(b[vec_col], np.float64))
        lists = np.argmax(V @ C.T, axis=1).astype(np.int64)
        return b.filter(pc.is_in(pa.array(lists, pa.int64()), value_set=probe_set))

    filtered = ds.map_batches(_filter, batch_format="pyarrow", batch_size=4096)
    return brute_topk(filtered, queries_ids, queries_mat, k, id_col, vec_col)


class _HammingScorer:
    """Broadcast query hashes; per batch one XOR + SWAR popcount
    against every corpus hash, block-local top-k (ties kept)."""

    def __init__(self, queries_ref, k: int, id_col: str, hash_col: str):
        import ray

        self.q_ids, self.q_hashes = ray.get(queries_ref)
        self.k = k
        self.id_col = id_col
        self.hash_col = hash_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .dedup import _popcount64

        ids = batch[self.id_col].to_numpy().astype(np.int64)
        h = key_i64(batch, self.hash_col)
        if len(h) == 0:
            return pa.schema([("query_id", pa.int64()),
                              ("item_id", pa.int64()),
                              ("dist", pa.int64())]).empty_table()
        d = _popcount64(self.q_hashes[:, None] ^ h[None, :])  # [nq, nb]
        kk = min(self.k, d.shape[1])
        if d.shape[1] > kk:
            kth = np.partition(d, kk - 1, axis=1)[:, kk - 1]
            keep = d <= kth[:, None]  # ties survive to the merge
        else:
            keep = np.ones_like(d, dtype=bool)
        qi, ci = np.nonzero(keep)
        return pa.table(
            {
                "query_id": pa.array(self.q_ids[qi], pa.int64()),
                "item_id": pa.array(ids[ci], pa.int64()),
                "dist": pa.array(d[qi, ci].astype(np.int64), pa.int64()),
            }
        )


def hamming_topk(ds, queries_ids: np.ndarray, queries_hashes: np.ndarray,
                 k: int = 5, id_col: str = "image_id",
                 hash_col: str = "phash", batch_size: int = 8192):
    """Exact Hamming top-k of each query hash over the whole Dataset —
    binary-hash retrieval (the query twin of the phash dedup path).
    Deterministic (dist asc, item_id asc) tie order; corpus streams,
    only ~q*k candidate rows shuffle.  A null hash raises
    ``ValueError`` naming ``hash_col``."""
    import ray

    from ..runtime import stateful_map

    ref = ray.put((np.asarray(queries_ids, np.int64),
                   np.asarray(queries_hashes, np.int64)))
    partial = stateful_map(
        ds, _HammingScorer,
        {"queries_ref": ref, "k": k, "id_col": id_col, "hash_col": hash_col},
        batch_size=batch_size,
    )

    return _hamming_merge(partial, k)


def hamming_topk_banded(corpus, queries, k: int = 5, radius: int = 3,
                        n_bands: int = 4, id_col: str = "image_id",
                        hash_col: str = "phash",
                        q_id_col: str = "query_id",
                        q_hash_col: str = "phash",
                        max_bucket: int = 4096):
    """Both-sides-large Hamming top-k: banded co-shuffle instead of
    broadcasting queries (the partitioned twin of ``hamming_topk``,
    completing the same broadcast/co-shuffle matrix as the kNN joins).

    Pigeonhole: results are EXACT for neighbors within ``radius`` <
    n_bands (any such pair agrees on >= 1 of the n_bands equal bands,
    so the (band_idx, band_key) co-shuffle co-locates it).  Emits up
    to k rows per query ranked (dist asc, item asc), only from
    candidates within the banded recall set — callers wanting
    unbounded-radius exactness use the broadcast ``hamming_topk``.

    Shuffle volume: n_bands 18-byte rows per hash on each side plus
    the candidate (query, item, dist) rows; hashes travel in the band
    rows so the rerank happens in-bucket with no join-back.

    The ``(band, key)`` buckets go through ``dedup._lsh_runs``: a run
    whose query x corpus pairs pass ``max_bucket``² keeps the
    ``max_bucket`` smallest ids of each side, with a logged warning.
    A null hash on either side raises ``ValueError`` naming its column.
    """
    band_bits = 64 // n_bands
    band_mask = np.uint64((1 << band_bits) - 1)

    def _bander(side: int, idc: str, hc: str):
        def _f(batch: pa.Table) -> pa.Table:
            h = key_i64(batch, hc).view(np.uint64)
            ids = batch[idc].to_numpy().astype(np.int64)
            n = len(h)
            bi = np.repeat(np.arange(n_bands, dtype=np.int64), n)
            hh = np.tile(h, n_bands)
            keys = (hh >> (np.uint64(band_bits) *
                           bi.astype(np.uint64))) & band_mask
            return pa.table(
                {
                    "band": pa.array(bi, pa.int64()),
                    "key": pa.array(keys.astype(np.int64), pa.int64()),
                    "rid": pa.array(np.tile(ids, n_bands), pa.int64()),
                    "rhash": pa.array(hh.astype(np.int64), pa.int64()),
                    "side": pa.array(np.full(n_bands * n, side), pa.int64()),
                }
            )

        return _f

    from .dedup import _lsh_runs, _popcount64

    both = (corpus.map_batches(_bander(0, id_col, hash_col),
                               batch_format="pyarrow")
            .union(queries.map_batches(_bander(1, q_id_col, q_hash_col),
                                       batch_format="pyarrow")))

    def _bucket(bucket: pa.Table) -> pa.Table:
        rows, pairs = _lsh_runs(bucket, ["band", "key"], "rid", max_bucket,
                                "hamming_topk_banded", side="side")
        rid = rows["rid"].to_numpy()
        h = rows["rhash"].to_numpy().view(np.uint64)
        out = []
        for qa, cb in pairs:  # a query row, a corpus row of its run
            d = _popcount64(h[qa] ^ h[cb])
            keep = d <= radius
            out.append(pa.table({"query_id": pa.array(rid[qa[keep]], pa.int64()),
                                 "item_id": pa.array(rid[cb[keep]], pa.int64()),
                                 "dist": pa.array(d[keep], pa.int64())}))
        return pa.concat_tables(out)

    cands = co_shuffle(both, ["band", "key"], _bucket)
    # a pair can surface from several agreeing bands: distinct first
    # (bucketed vectorized min-reduce, not Ray's per-group aggregate)
    cands = distinct_reduce(cands, ["query_id", "item_id"],
                            aggs={"dist": "min"})

    return _hamming_merge(cands, k)


def _hamming_merge(cands, k: int):
    """(query_id, rank, item_id, dist): the k first candidates of each
    query by (dist asc, item_id asc)."""
    out = top_k(cands, "query_id", [("dist", "ascending"), ("item_id", "ascending")], k)
    return out.map_batches(lambda b: b.select(["query_id", "rank", "item_id", "dist"]),
                           batch_format="pyarrow")
