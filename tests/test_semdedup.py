"""SemDeDup (cluster-then-intra-cluster cosine dedup) tests.

Oracle: slow pure-Python assignment + pairwise cosine on small
deterministic inputs; plus the mass-duplicate pre-collapse path and
the chunked in-cluster kernel (chunk smaller than the cluster).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from solaris_ray.stages import dedup
from solaris_ray.stages.ann import seeded_centroids


def _make_ds(V: np.ndarray, ids=None):
    ids = np.arange(len(V), dtype=np.int64) if ids is None else np.asarray(ids)
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([row.tolist() for row in V], pa.list_(pa.float32())),
        }
    )
    return ray.data.from_arrow(tbl)


def _py_semdedup(V, ids, C, tau):
    V = V.astype(np.float64)
    cl = np.argmax(V @ C.T, axis=1)
    n = (np.linalg.norm(V, axis=1))
    n[n == 0] = 1.0
    Vn = V / n[:, None]
    keep = {}
    order = np.argsort(ids)
    for i in order:
        dup = any(
            cl[j] == cl[i]
            and ids[j] < ids[i]
            and round(float(Vn[i] @ Vn[j]), 6) >= tau
            for j in range(len(ids))
        )
        keep[int(ids[i])] = 0 if dup else 1
    return cl, keep


def test_matches_python_oracle_chunked():
    rng = np.random.default_rng(3)
    V = rng.standard_normal((60, 16)).astype(np.float32)
    # plant near-duplicates
    V[7] = V[3] + 1e-4
    V[25] = V[3] * 2.0  # same direction, different norm -> cosine 1
    C = seeded_centroids(16, 4, seed=11)
    ids = np.arange(60, dtype=np.int64)
    out = dedup.semantic_dedup(_make_ds(V), C, tau=0.9, chunk=8).to_pandas()
    cl, keep = _py_semdedup(V, ids, C, 0.9)
    got = dict(zip(out["vec_id"], out["keep"]))
    gotcl = dict(zip(out["vec_id"], out["cluster"]))
    assert got == keep
    assert all(gotcl[i] == cl[i] for i in ids)
    assert (out["keep"] == 0).sum() >= 2  # the planted dups dropped


def test_keep_first_by_id_not_row_order():
    V = np.tile(np.array([[1.0, 0.0, 0.0, 0.0]], dtype=np.float32), (5, 1))
    ids = np.array([50, 10, 30, 20, 40])
    C = seeded_centroids(4, 2, seed=1)
    out = dedup.semantic_dedup(_make_ds(V, ids), C, tau=0.99).to_pandas()
    got = dict(zip(out["vec_id"], out["keep"]))
    assert got == {10: 1, 20: 0, 30: 0, 40: 0, 50: 0}


def test_precollapse_mass_duplicates():
    # 400 bitwise-identical vectors + 3 distinct: the collapsed path
    # must drop all but the min-id copy without an O(m^2) cluster
    rng = np.random.default_rng(5)
    base = rng.standard_normal(8).astype(np.float32)
    V = np.vstack([np.tile(base, (400, 1)), rng.standard_normal((3, 8)).astype(np.float32)])
    C = seeded_centroids(8, 2, seed=2)
    out, stars = dedup.semantic_dedup(_make_ds(V), C, tau=0.95, precollapse=True)
    stars_df = stars.to_pandas()
    out_df = out.to_pandas()
    # representatives survive the cluster kernel; duplicate class
    # members appear in the star pairs
    assert len(stars_df) == 399
    assert set(stars_df["doc_a"]) == {0}
    assert 0 in set(out_df["vec_id"])
    assert out_df[out_df["vec_id"] == 0]["keep"].iloc[0] == 1
    # the kernel only ever saw 4 vectors (1 rep + 3 distinct)
    assert len(out_df) == 4


def test_semantic_dedup_gate_finishes_on_one_cpu():
    # the centroid assigner ran as a (1, 8) actor pool, whose one actor
    # a 1-CPU session running its input could not start
    import pyarrow.parquet as pq
    from conftest import SF_DIR, gate_rows_on_one_cpu

    want = pq.read_metadata(f"{SF_DIR}/embeddings.parquet").num_rows  # one row per vector
    assert want > 0
    assert gate_rows_on_one_cpu("q_semantic_dedup") == want
