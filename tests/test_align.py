"""Image-caption alignment filter tests vs a pure-Python oracle."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray

from solaris_ray.stages.align import caption_alignment


def _py_feat(text, dim):
    F = np.zeros(dim, np.float64)
    for t in text.strip().split():
        h = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "little")
        F[(h // 2) % dim] += 1.0 if h % 2 == 0 else -1.0
    return F


def _mk(texts, V, n_blocks=1):
    docs = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                  "text": pa.array(texts)})
    )
    emb = ray.data.from_arrow(
        pa.table({"vec_id": pa.array(np.arange(len(V), dtype=np.int64)),
                  "embedding": pa.array([r.tolist() for r in V],
                                        pa.list_(pa.float32()))})
    )
    if n_blocks > 1:
        docs, emb = docs.repartition(n_blocks), emb.repartition(n_blocks)
    return docs, emb


def test_alignment_matches_python(ray_session):
    rng = np.random.default_rng(9)
    dim = 16
    texts = ["alpha beta gamma", "delta epsilon", "zeta eta theta iota",
             "kappa", "lambda mu nu xi omicron pi"]
    V = rng.normal(size=(5, dim)).astype(np.float32)
    docs, emb = _mk(texts, V)
    got = caption_alignment(docs, emb, dim=dim, tau=0.0).to_pandas().sort_values("doc_id")
    for i, row in enumerate(got.itertuples(index=False)):
        F = _py_feat(texts[i], dim)
        E = V[i].astype(np.float64)
        sim = np.round(F @ E / (np.linalg.norm(F) * np.linalg.norm(E)), 6)
        assert row.doc_id == i and abs(row.sim6 - sim) < 1e-9
        assert row.keep == int(row.sim6 >= 0.0)


def test_alignment_unmatched_docs_dropped(ray_session):
    # doc 3 has no embedding -> no output row (inner-join semantics)
    texts = ["a b", "c d", "e f", "g h"]
    V = np.eye(3, 8, dtype=np.float32)
    docs, emb = _mk(texts, V)
    got = caption_alignment(docs, emb, dim=8).to_pandas()
    assert sorted(got["doc_id"]) == [0, 1, 2]


def test_alignment_block_invariance(ray_session):
    rng = np.random.default_rng(4)
    texts = [" ".join(rng.choice([f"w{i}" for i in range(30)], size=10))
             for _ in range(80)]
    V = rng.normal(size=(80, 32)).astype(np.float32)
    a = caption_alignment(*_mk(texts, V, 1), dim=32).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    b = caption_alignment(*_mk(texts, V, 6), dim=32).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert a.equals(b)
