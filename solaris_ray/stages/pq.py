"""Product quantization (PQ) — encode + asymmetric-distance top-k.

The memory-bound half of large-scale ANN (Jégou et al., "Product
Quantization for Nearest Neighbor Search", TPAMI 2011): a d-dim vector
becomes m uint8 codes (one per subspace), shrinking a 10^12-row
embedding corpus ~64x so the search working set fits the object store;
queries scan CODES, not vectors, via a per-query lookup table (ADC).
The repo's IVF stage (`ann.ivf_topk`) is the routing half; PQ is the
compression half of the classic IVF-PQ pair.

Determinism recipe (the kmeans/zscore recipe from NOTES round 3):
embeddings are quantized once to int64 micro-units
(``floor(x * quant + 0.5)`` — float64 half-up, reproducible in SQL as
``floor(CAST(e AS DOUBLE) * quant + 0.5)``), and every distance after
that is EXACT int64 arithmetic: subspace assignment is an argmin over
integer squared-L2 (ties -> lowest code, numpy argmin's first-hit),
ADC is an int64 table-lookup sum.  Results are order-free and
hash-identical to the DuckDB twin.

Scale shape: codebooks are tiny (m * ksub * dsub ints) and ride to
every task as a broadcast; encode is one streaming ``map_batches``
(vectorized einsum per subspace); search is per-batch partial top-k
(q x k id-only rows) + one ``_buckets.top_k`` merge on query_id — the
corpus itself never shuffles.  At 100 TB the codes table is the only
thing scanned per query batch, ~1/64th of the raw bytes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import top_k
from .ann import hash_sample_table, kmeans_centroids, list_col_to_matrix


def quantize_units(M: np.ndarray, quant: int = 1000) -> np.ndarray:
    """float matrix -> int64 micro-units, half-up, SQL-reproducible."""
    return np.floor(M.astype(np.float64) * quant + 0.5).astype(np.int64)


def seeded_codebooks(
    dim: int, m: int = 4, ksub: int = 8, lo_mod: int = 401, shift: int = 200
) -> np.ndarray:
    """Deterministic integer codebooks from a closed-form formula a SQL
    oracle regenerates with ``range()`` cross joins (the
    ``seeded_centroids`` idiom): entry (sub, code, t) =
    ((sub*131 + code*37 + t*17) % lo_mod) - shift.  Shape (m, ksub,
    dim//m), int64."""
    if dim % m:
        raise ValueError("dim must divide evenly into m subspaces")
    dsub = dim // m
    sub = np.arange(m)[:, None, None]
    code = np.arange(ksub)[None, :, None]
    t = np.arange(dsub)[None, None, :]
    return ((sub * 131 + code * 37 + t * 17) % lo_mod - shift).astype(np.int64)


def train_codebooks(
    ds,
    dim: int,
    m: int = 8,
    ksub: int = 256,
    quant: int = 1000,
    sample_size: int = 4096,
    iters: int = 10,
    seed: int = 42,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> np.ndarray:
    """Per-subspace k-means over a deterministic HASH sample (never a
    head sample — the round-2 IVF lesson), trained in float then
    quantized to the same int64 micro-units the encoder uses.  Shape
    (m, ksub, dim//m), int64."""
    if dim % m:
        raise ValueError("dim must divide evenly into m subspaces")
    dsub = dim // m
    samp = hash_sample_table(ds, sample_size, id_col=id_col,
                             columns=[id_col, vec_col])
    X = list_col_to_matrix(samp[vec_col], dtype=np.float64)
    books = np.empty((m, ksub, dsub), np.int64)
    for s in range(m):
        c = kmeans_centroids(X[:, s * dsub : (s + 1) * dsub], ksub,
                             iters=iters, seed=seed + s)
        books[s] = quantize_units(c, quant)
    return books


def _assign_codes(Xq: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, dim) int64 units + (m, ksub, dsub) int64 books -> (n, m)
    int64 codes.  Exact: d = Σv² - 2Σvc + Σc²; the Σv² term is constant
    per subvector, so argmin uses only the cross and norm terms."""
    n = Xq.shape[0]
    m, ksub, dsub = books.shape
    codes = np.empty((n, m), np.int64)
    for s in range(m):
        V = Xq[:, s * dsub : (s + 1) * dsub]  # (n, dsub)
        C = books[s]  # (ksub, dsub)
        cross = V @ C.T  # int64 (n, ksub)
        cnorm = np.einsum("kd,kd->k", C, C)  # (ksub,)
        codes[:, s] = np.argmin(cnorm[None, :] - 2 * cross, axis=1)
    return codes


def pq_encode(
    ds,
    books: np.ndarray,
    quant: int = 1000,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Streaming encode: (id, embedding) -> (id, c0..c{m-1}) int64
    codes.  One vectorized map_batches; the codebook broadcast is tiny."""
    m = books.shape[0]
    dim = books.shape[0] * books.shape[2]

    def _enc(batch: pa.Table) -> pa.Table:
        X = list_col_to_matrix(batch[vec_col], dtype=np.float64)
        if X.shape[1] != dim:
            raise ValueError(f"pq_encode: expected dim {dim}, got {X.shape[1]}")
        codes = _assign_codes(quantize_units(X, quant), books)
        cols = {id_col: batch[id_col]}
        for s in range(m):
            cols[f"c{s}"] = pa.array(codes[:, s], pa.int64())
        return pa.table(cols)

    return ds.map_batches(_enc, batch_format="pyarrow")


def pq_adc_topk(
    codes_ds,
    queries_ids: np.ndarray,
    queries_mat: np.ndarray,
    books: np.ndarray,
    k: int = 5,
    quant: int = 1000,
    id_col: str = "vec_id",
    exclude_self: bool = True,
):
    """ADC top-k over a PQ codes dataset: per-query int64 lookup table
    (m x ksub squared distances to the query's quantized subvectors),
    per-batch partial top-k, one ``top_k`` merge on query_id.
    Ties break to the lower vec_id, pinned through every partial cut.
    ``exclude_self`` drops corpus rows whose id equals the query id
    (the house ANN-gate convention)."""
    m, ksub, dsub = books.shape
    Q = quantize_units(np.asarray(queries_mat, np.float64), quant)
    nq = Q.shape[0]
    lut = np.empty((nq, m, ksub), np.int64)
    for s in range(m):
        V = Q[:, s * dsub : (s + 1) * dsub]  # (nq, dsub)
        diff = V[:, None, :] - books[s][None, :, :]  # (nq, ksub, dsub)
        lut[:, s, :] = np.einsum("qkd,qkd->qk", diff, diff)
    qids = np.asarray(queries_ids, np.int64)

    def _partial(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    id_col: pa.array([], pa.int64()),
                    "dist": pa.array([], pa.int64()),
                }
            )
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        adc = np.zeros((nq, n), np.int64)
        for s in range(m):
            cs = batch[f"c{s}"].to_numpy(zero_copy_only=False)
            adc += lut[:, s, :][:, cs]
        sentinel = np.iinfo(np.int64).max
        if exclude_self:
            adc[qids[:, None] == ids[None, :]] = sentinel
        kk = min(k, n)
        # per-query partial top-k with the id tiebreak INSIDE the cut
        # (NOTES round-1 finding #5): lexsort on (dist, id) per query
        order = np.lexsort((np.broadcast_to(ids, (nq, n)), adc), axis=1)[:, :kk]
        rows_q = np.repeat(qids, kk)
        rows_i = ids[order].ravel()
        rows_d = np.take_along_axis(adc, order, axis=1).ravel()
        keep = rows_d != sentinel
        return pa.table(
            {
                "query_id": pa.array(rows_q[keep], pa.int64()),
                id_col: pa.array(rows_i[keep], pa.int64()),
                "dist": pa.array(rows_d[keep], pa.int64()),
            }
        )

    partial = codes_ds.map_batches(_partial, batch_format="pyarrow")
    return top_k(partial, "query_id", [("dist", "ascending"), (id_col, "ascending")], k)
