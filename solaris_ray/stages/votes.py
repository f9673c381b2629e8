"""Label-vote resolution — majority-vote aggregation of redundant labels.

The training-data curation step for crowd/ensemble-labeled corpora
(multiple annotators or teacher models emit a label per item; the
pipeline must resolve one winner per item deterministically).
Reference context: solaris's eval matches proposals to ground truth
one-to-one (`/root/reference/solaris/eval/base.py`); label resolution
is the many-annotations-per-item analogue on the curation side.

Semantics (oracle-exact): winner = the label with the most votes for
the item; ties break to the LEXICOGRAPHICALLY SMALLEST label.  Output
per item: winner label, its vote count, total votes, distinct label
count, and the winner share rounded to 6 dp.

Shape: one ``co_shuffle`` on the item of (item, label) rows; inside a
bucket, labels are factorized (``np.unique`` codes are
assigned in sorted order, so code order IS lexicographic order), votes
are counted on integer (item, code) keys, and the per-item argmax with
tie-break runs as one lexsort-segment pass — no per-item Python
dispatch.  Only (item, label) rows ever shuffle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle


def resolve_labels(votes, item_col: str = "item_id", label_col: str = "label"):
    """votes Dataset (item_col, label_col) -> one row per item:
    (item_col, label, votes, total, n_labels, share6)."""

    def _project(batch: pa.Table) -> pa.Table:
        item = batch[item_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"item": pa.array(item, pa.int64()), "lab": batch[label_col]})

    out_schema = pa.schema(
        [(item_col, pa.int64()), (label_col, pa.string()),
         ("votes", pa.int64()), ("total", pa.int64()),
         ("n_labels", pa.int64()), ("share6", pa.float64())]
    )

    def _resolve(group: pa.Table) -> pa.Table:
        item = group["item"].to_numpy(zero_copy_only=False)
        lab = group["lab"].to_numpy(zero_copy_only=False)
        if item.size == 0:
            return out_schema.empty_table()
        uniq, code = np.unique(lab, return_inverse=True)  # sorted -> code
        # (item, code) vote counts via a lexsort-segment pass (no
        # composite integer key — item * n_labels + code can wrap
        # int64 for large ids and silently collide)
        o0 = np.lexsort((code, item))
        it_s, cd_s = item[o0], code[o0]
        newpair = np.r_[True, (it_s[1:] != it_s[:-1]) | (cd_s[1:] != cd_s[:-1])]
        uitem = it_s[newpair]
        ucode = cd_s[newpair]
        pair_seg = np.cumsum(newpair) - 1
        cnt = np.bincount(pair_seg).astype(np.int64)
        # per item: first row of (item asc, votes desc, code asc)
        o = np.lexsort((ucode, -cnt, uitem))
        uitem, ucode, cnt = uitem[o], ucode[o], cnt[o]
        new = np.r_[True, uitem[1:] != uitem[:-1]]
        seg = np.cumsum(new) - 1
        starts = np.flatnonzero(new)
        nq = starts.size
        total = np.zeros(nq, np.int64)
        np.add.at(total, seg, cnt)
        n_labels = np.zeros(nq, np.int64)
        np.add.at(n_labels, seg, 1)
        win_votes = cnt[starts].astype(np.int64)
        return pa.table(
            {
                item_col: pa.array(uitem[starts], pa.int64()),
                label_col: pa.array(uniq[ucode[starts]], pa.string()),
                "votes": pa.array(win_votes, pa.int64()),
                "total": pa.array(total, pa.int64()),
                "n_labels": pa.array(n_labels, pa.int64()),
                "share6": pa.array(np.round(win_votes / total, 6), pa.float64()),
            }
        )

    return co_shuffle(votes.map_batches(_project, batch_format="pyarrow"), "item", _resolve)
