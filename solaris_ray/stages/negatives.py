"""Deterministic contrastive negative mining.

Contrastive training (CLIP-style image-caption models) needs k
negatives per anchor.  Uniform-random negatives at 100 TB must be (a)
collision-free with the anchor, (b) reproducible across reruns and
block orders, (c) joinable without an all-pairs pass.  This mines by
RANK arithmetic: anchors and candidates live on the same dense rank
space (``rank.global_rank`` — sorted per-block offsets), negative j of
the anchor at rank r is the doc at rank

    (r + 1 + ((j * 2654435761 + r) % (N - 1))) % N

which is never r (offset in [1, N-1]) and is a fixed pseudo-random
walk the SQL oracle reproduces exactly.  Offsets for different j may
coincide (documented; rows stay unique via j).  The negative lookup
is ONE ``co_shuffle`` on rank — id-only rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle

_P = np.int64(2654435761)


def mine_negatives(ds, k: int = 5, id_col: str = "doc_id"):
    """rows with ``id_col`` -> (anchor_id, j, neg_id), k rows per
    anchor."""
    from .rank import global_rank

    ranked = global_rank(ds.select_columns([id_col]), [id_col], pct=False)
    n = ranked.count()

    msg_schema = pa.schema(
        [("tr", pa.int64()), ("anchor_id", pa.int64()), ("j", pa.int64())]
    )

    def _requests(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        r = batch["rank"].to_numpy(zero_copy_only=False) - 1  # 0-based
        if ids.size == 0:
            return msg_schema.empty_table()
        trs, ancs, js = [], [], []
        for j in range(1, k + 1):
            off = 1 + ((np.int64(j) * _P + r) % (n - 1))
            tr = (r + off) % n
            trs.append(tr); ancs.append(ids); js.append(np.full(ids.size, j, np.int64))
        tr = np.concatenate(trs)
        return pa.table(
            {
                "tr": pa.array(tr, pa.int64()),
                "anchor_id": pa.array(np.concatenate(ancs), pa.int64()),
                "j": pa.array(np.concatenate(js), pa.int64()),
            }
        )

    def _own(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        r = batch["rank"].to_numpy(zero_copy_only=False) - 1
        if ids.size == 0:
            return msg_schema.empty_table()
        return pa.table(
            {
                "tr": pa.array(r, pa.int64()),
                "anchor_id": pa.array(ids, pa.int64()),
                "j": pa.array(np.full(ids.size, -1, np.int64), pa.int64()),
            }
        )

    out_schema = pa.schema(
        [("anchor_id", pa.int64()), ("j", pa.int64()), ("neg_id", pa.int64())]
    )

    def _join(group: pa.Table) -> pa.Table:
        j = group["j"].to_numpy(zero_copy_only=False)
        tr = group["tr"].to_numpy(zero_copy_only=False)
        aid = group["anchor_id"].to_numpy(zero_copy_only=False)
        own = j == -1
        o_r, o_id = tr[own], aid[own]
        so = np.argsort(o_r, kind="stable")
        o_r, o_id = o_r[so], o_id[so]
        req = ~own
        if not req.any() or o_r.size == 0:
            return out_schema.empty_table()
        pos = np.searchsorted(o_r, tr[req])
        return pa.table(
            {
                "anchor_id": pa.array(aid[req], pa.int64()),
                "j": pa.array(j[req], pa.int64()),
                "neg_id": pa.array(o_id[pos], pa.int64()),
            }
        )

    both = ranked.map_batches(_requests, batch_format="pyarrow", batch_size=4096).union(
        ranked.map_batches(_own, batch_format="pyarrow", batch_size=4096))
    return co_shuffle(both, "tr", _join)
