"""Distributed PCA over an embedding column.

Embedding whitening / decorrelation for training-data curation (the
DSIR / SemDeDup preprocessing step).  The heavy part — the d x d
covariance — is a pure partial-aggregate: each batch emits (n, sum[d],
outer-product sum[d*d]) once, a 64-way bucketed combine reduces
n_batches partials to <= 64 rows, and the driver finishes the O(d^2)
arithmetic + the O(d^3) eigendecomposition (d is small by contract;
the corpus never shuffles, vectors never leave their blocks).

Projection is then a broadcast matmul ``map_batches`` — identical
shape to stages.multimodal.EmbeddingExtractor.

Eigenvector sign is fixed deterministically (largest-|component|
coordinate made positive) so projections are reproducible across runs
and block orders.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


_PART_SCHEMA = pa.schema(
    [("bucket", pa.int64()), ("n", pa.int64()),
     ("s1", pa.list_(pa.float64())), ("s2", pa.list_(pa.float64()))]
)


def covariance_partials(ds, dim: int, vec_col: str = "embedding",
                        n_buckets: int = 64):
    """embeddings -> (n, mean, covariance) computed distributively.

    Returns (n_total, mean[d], cov[d, d]) as numpy, where
    cov = E[xx^T] - mean mean^T (population covariance)."""
    from .ann import list_col_to_matrix

    def _partial(batch: pa.Table) -> pa.Table:
        V = list_col_to_matrix(batch[vec_col], np.float64)
        if V.shape[0] == 0:
            return _PART_SCHEMA.empty_table()
        s1 = V.sum(axis=0)
        s2 = V.T @ V
        # deterministic bucket from the batch content so combine is
        # reproducible regardless of task placement
        b = int(np.uint64(np.abs(s1).view(np.uint64).sum()) % np.uint64(n_buckets))
        return pa.table(
            {
                "bucket": pa.array([b], pa.int64()),
                "n": pa.array([V.shape[0]], pa.int64()),
                "s1": pa.array([s1.tolist()], pa.list_(pa.float64())),
                "s2": pa.array([s2.ravel().tolist()], pa.list_(pa.float64())),
            }
        )

    def _combine(group: pa.Table) -> pa.Table:
        from .ann import list_col_to_matrix as lcm

        n = int(pc.sum(group["n"]).as_py())
        s1 = lcm(group["s1"], np.float64).sum(axis=0)
        s2 = lcm(group["s2"], np.float64).sum(axis=0)
        return pa.table(
            {
                "bucket": pa.array([group["bucket"][0].as_py()], pa.int64()),
                "n": pa.array([n], pa.int64()),
                "s1": pa.array([s1.tolist()], pa.list_(pa.float64())),
                "s2": pa.array([s2.tolist()], pa.list_(pa.float64())),
            }
        )

    rows = (
        ds.map_batches(_partial, batch_format="pyarrow", batch_size=4096)
        .groupby("bucket")
        .map_groups(_combine, batch_format="pyarrow")
        .take_all()  # <= n_buckets tiny rows
    )
    n = sum(r["n"] for r in rows)
    s1 = np.sum([np.asarray(r["s1"], np.float64) for r in rows], axis=0)
    s2 = np.sum([np.asarray(r["s2"], np.float64) for r in rows], axis=0)
    mean = s1 / n
    cov = s2.reshape(dim, dim) / n - np.outer(mean, mean)
    return n, mean, cov


def covariance_table(ds, dim: int, vec_col: str = "embedding",
                     round_dp: int = 6):
    """Gate-query surface: upper-triangle covariance entries
    (i, j, cov6), exactly reproducible in SQL."""
    import ray

    _, _, cov = covariance_partials(ds, dim, vec_col)
    ii, jj = np.triu_indices(dim)
    tbl = pa.table(
        {
            "i": pa.array(ii.astype(np.int64), pa.int64()),
            "j": pa.array(jj.astype(np.int64), pa.int64()),
            "cov6": pa.array(np.round(cov[ii, jj], round_dp), pa.float64()),
        }
    )
    return ray.data.from_arrow(tbl)


def pca_project(ds, dim: int, k: int, vec_col: str = "embedding",
                id_col: str = "vec_id"):
    """embeddings -> (vec_id, pc: list<double>[k]) projected onto the
    top-k principal components (centered), deterministic signs."""
    import ray

    from .ann import list_col_to_matrix

    _, mean, cov = covariance_partials(ds, dim, vec_col)
    w, U = np.linalg.eigh(cov)
    order = np.argsort(w)[::-1][:k]
    W = U[:, order]  # (dim, k)
    flip = np.sign(W[np.argmax(np.abs(W), axis=0), np.arange(k)])
    W = W * np.where(flip == 0, 1.0, flip)
    bundle = ray.put((mean, W))

    def _proj(batch: pa.Table) -> pa.Table:
        m, Wm = ray.get(bundle)
        V = list_col_to_matrix(batch[vec_col], np.float64)
        if V.shape[0] == 0:
            return pa.schema(
                [(id_col, pa.int64()), ("pc", pa.list_(pa.float64()))]
            ).empty_table()
        P = (V - m) @ Wm
        return pa.table(
            {
                id_col: pc.cast(batch[id_col], pa.int64()),
                "pc": pa.array(P.tolist(), pa.list_(pa.float64())),
            }
        )

    return ds.map_batches(_proj, batch_format="pyarrow", batch_size=4096)
