"""Distributed k-means (Lloyd iterations) over an embedding column.

The reference (CosmiQ/solaris) has no clustering; this is the
training-data-pipeline primitive behind SemDeDup / IVF partitioning /
corpus curation (cluster-balanced sampling).  Classic scalable Lloyd:

per iteration (one streaming pass over the corpus, NO shuffle of
vectors):
  1. broadcast centroids (``ray.put`` once, read per task),
  2. ``map_batches``: assign each vector by raw-dot argmax (tie ->
     lowest cluster, matching the SQL oracle's ``ORDER BY dp DESC, l``)
     and emit k PARTIAL rows ``(cluster, n, ssum[dim])`` per batch —
     the combiner-before-groupby pattern, so the shuffle moves
     k x n_batches tiny rows, never vectors,
  3. ``groupby(cluster)`` combine -> k rows to the driver (tiny by
     construction), new centroid = round(sum/n, 6) — 6-dp rounding on
     BOTH engine and oracle sides removes float-summation-order
     sensitivity (the repo-wide idiom, cf. image_stats); empty
     clusters keep their previous centroid.

Final pass emits ``(vec_id, cluster)``.  Total cost: ``iters + 1``
streaming passes, each embarrassingly parallel; driver holds only the
k x dim centroid matrix.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def kmeans_assign(
    ds,
    k: int = 8,
    dim: int = 64,
    iters: int = 2,
    seed: int = 7,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    round_dp: int = 6,
):
    """embeddings -> (vec_id, cluster) after ``iters`` Lloyd rounds
    from the seeded deterministic init (``ann.seeded_centroids``)."""
    import ray

    from .ann import list_col_to_matrix, seeded_centroids

    C = seeded_centroids(dim, k, seed).astype(np.float64)

    partial_schema = pa.schema(
        [("cluster", pa.int64()), ("n", pa.int64()),
         ("ssum", pa.list_(pa.float64()))]
    )

    def _make_partial(cref):
        def _partial(batch: pa.Table) -> pa.Table:
            Cm = ray.get(cref)
            V = list_col_to_matrix(batch[vec_col], np.float64)
            if V.shape[0] == 0:
                return partial_schema.empty_table()
            cl = np.argmax(V @ Cm.T, axis=1)
            sums = np.zeros((k, dim), np.float64)
            np.add.at(sums, cl, V)
            n = np.bincount(cl, minlength=k).astype(np.int64)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(k, dtype=np.int64), pa.int64()),
                    "n": pa.array(n, pa.int64()),
                    "ssum": pa.array(sums.tolist(), pa.list_(pa.float64())),
                }
            )

        return _partial

    def _combine(group: pa.Table) -> pa.Table:
        s = list_col_to_matrix(group["ssum"], np.float64).sum(axis=0)
        return pa.table(
            {
                "cluster": pa.array([group["cluster"][0].as_py()], pa.int64()),
                "n": pa.array([int(pc.sum(group["n"]).as_py())], pa.int64()),
                "ssum": pa.array([s.tolist()], pa.list_(pa.float64())),
            }
        )

    for _ in range(iters):
        cref = ray.put(C)
        combined = (
            ds.map_batches(_make_partial(cref), batch_format="pyarrow",
                           batch_size=4096)
            .groupby("cluster")
            .map_groups(_combine, batch_format="pyarrow")
            .take_all()  # k rows — tiny by construction
        )
        newC = C.copy()  # empty clusters keep their previous centroid
        for row in combined:
            if row["n"] > 0:
                newC[row["cluster"]] = np.round(
                    np.asarray(row["ssum"], np.float64) / row["n"], round_dp
                )
        C = newC

    cref = ray.put(C)

    def _assign(batch: pa.Table) -> pa.Table:
        Cm = ray.get(cref)
        V = list_col_to_matrix(batch[vec_col], np.float64)
        if V.shape[0] == 0:
            return pa.schema(
                [(id_col, pa.int64()), ("cluster", pa.int64())]
            ).empty_table()
        cl = np.argmax(V @ Cm.T, axis=1).astype(np.int64)
        return pa.table(
            {
                id_col: pc.cast(batch[id_col], pa.int64()),
                "cluster": pa.array(cl, pa.int64()),
            }
        )

    return ds.map_batches(_assign, batch_format="pyarrow", batch_size=4096)
