"""Image-caption alignment filter (CLIP-score-style curation).

The LAION recipe: score every (image, caption) pair with a cross-modal
similarity and keep pairs above a threshold.  No model weights exist
in this environment, so the text tower is a deterministic hashed
bag-of-words featurizer (feature-hashing, Weinberger et al. ICML'09):
token -> md5 low-8-bytes -> sign = low bit, bucket = (h // 2) % dim —
exactly reproducible in SQL via the repo's md5-hex-expansion idiom, so
the whole pipeline is hash-exact oracled.  The image tower is the
precomputed embedding column (what a real deployment has after the
scorer stage, cf. stages.multimodal.EmbeddingExtractor).

Shape: one token-explode map_batches (text features never leave the
batch — the stage emits (doc_id, feat[dim])), then ONE ``co_shuffle``
joining features to embeddings on id, cosine + threshold inside the
bucket, vectorized.  Bodies never
shuffle; only (id, dim floats) rows move.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle
from .text import WORD_SPLIT

_FEAT_SUFFIX = "__feat"


def _hash_tokens(uniq: np.ndarray, dim: int):
    """token -> (bucket, sign) via md5 low 8 bytes LE (the corpus-wide
    hash idiom, recomputable as md5() hex in DuckDB)."""
    h = np.array(
        [int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "little")
         for t in uniq],
        dtype=np.uint64,
    )
    sign = np.where(h % np.uint64(2) == 0, 1.0, -1.0)
    bucket = ((h // np.uint64(2)) % np.uint64(dim)).astype(np.int64)
    return bucket, sign


def caption_alignment(
    docs,
    embeds,
    dim: int = 64,
    tau: float = 0.0,
    id_col: str = "doc_id",
    vec_id_col: str = "vec_id",
    text_col: str = "text",
    vec_col: str = "embedding",
):
    """(documents, embeddings) -> (doc_id, sim6, keep).

    sim6 = round(cosine(hashed-BoW(text), embedding), 6); keep = 1 when
    sim6 >= tau.  Rows with no tokens or a zero feature vector get
    sim6 = 0 (keep follows tau), matching the SQL oracle's COALESCE.
    """
    from .ann import list_col_to_matrix

    feat_schema = pa.schema(
        [("jid", pa.int64()), ("side", pa.int64()),
         ("vals", pa.list_(pa.float64()))]
    )

    def _featurize(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return feat_schema.empty_table()
        toks = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(batch[text_col]), WORD_SPLIT
        )
        flat = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        terms = pc.list_flatten(flat).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(flat).to_numpy(zero_copy_only=False)
        F = np.zeros((n, dim), np.float64)
        if terms.size:
            uniq, inv = np.unique(terms, return_inverse=True)
            bucket, sign = _hash_tokens(uniq, dim)
            np.add.at(F, (parent, bucket[inv]), sign[inv])
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "jid": pa.array(ids, pa.int64()),
                "side": pa.array(np.zeros(n, np.int64), pa.int64()),
                "vals": pa.array(F.tolist(), pa.list_(pa.float64())),
            }
        )

    def _embed_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return feat_schema.empty_table()
        V = list_col_to_matrix(batch[vec_col], np.float64)
        ids = pc.cast(batch[vec_id_col], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "jid": pa.array(ids, pa.int64()),
                "side": pa.array(np.ones(n, np.int64), pa.int64()),
                "vals": pa.array(V.tolist(), pa.list_(pa.float64())),
            }
        )

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("sim6", pa.float64()), ("keep", pa.int64())]
    )

    def _join(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        side = group["side"].to_numpy(zero_copy_only=False)
        jid = group["jid"].to_numpy(zero_copy_only=False)
        M = list_col_to_matrix(group["vals"], np.float64)
        t_ids, t_feat = jid[side == 0], M[side == 0]
        e_ids, e_vec = jid[side == 1], M[side == 1]
        if t_ids.size == 0 or e_ids.size == 0:
            return out_schema.empty_table()
        # align by id within the bucket (both sides sorted by id)
        to = np.argsort(t_ids, kind="stable")
        eo = np.argsort(e_ids, kind="stable")
        t_ids, t_feat = t_ids[to], t_feat[to]
        e_ids, e_vec = e_ids[eo], e_vec[eo]
        pos = np.searchsorted(e_ids, t_ids)
        ok = (pos < len(e_ids)) & (e_ids[np.clip(pos, 0, max(len(e_ids) - 1, 0))] == t_ids)
        t_ids, t_feat, pos = t_ids[ok], t_feat[ok], pos[ok]
        E = e_vec[pos]
        dot = np.einsum("ij,ij->i", t_feat, E)
        nt = np.sqrt(np.einsum("ij,ij->i", t_feat, t_feat))
        ne = np.sqrt(np.einsum("ij,ij->i", E, E))
        denom = nt * ne
        sim = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
        sim6 = np.round(sim, 6)
        return pa.table(
            {
                "doc_id": pa.array(t_ids, pa.int64()),
                "sim6": pa.array(sim6, pa.float64()),
                "keep": pa.array((sim6 >= tau).astype(np.int64), pa.int64()),
            }
        )

    both = docs.map_batches(_featurize, batch_format="pyarrow", batch_size=1024).union(
        embeds.map_batches(_embed_rows, batch_format="pyarrow", batch_size=4096)
    )
    return co_shuffle(both, "jid", _join)
