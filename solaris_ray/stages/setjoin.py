"""Exact set-similarity self-join: all document pairs with Jaccard
(over DISTINCT whitespace tokens) >= tau, via prefix filtering.

The EXACT complement of the MinHash ladder (`stages/dedup.py`
approximates this relation; `stages/editdist.py` covers short strings)
— data-cleaning joins, citation matching, near-identical caption
detection where a guaranteed-no-miss answer is required.

Prefix filter (Chaudhuri et al. ICDE'06 / Bayardo et al. WWW'07
AllPairs): order tokens globally (rarest first); with sets sorted in
that order, two sets with Jaccard >= tau MUST share a token in their
first ``p = n - ceil(tau * n) + 1`` tokens.  Only prefix tokens are
emitted as join keys, so a common stopword shared by every document
never becomes a join key unless tau is tiny — frequency ordering puts
it last.  Ordering affects PRUNING only, never the answer: candidates
are verified with exact integer intersection counts
(``100 * inter >= tau100 * union`` — no float compare anywhere).

Shape — fully distributed, NO driver-side vocabulary (the round-4
version materialized the global token-DF table on the driver and
broadcast two vocab-sized arrays; a 100 TB corpus has billions of
distinct tokens, so that pull was a north-rule violation):

1. docs explode once to (doc_id, tok) distinct rows;
2. ``co_shuffle`` on the token — every occurrence of a token lands in
   one bucket, so its global document frequency is simply the row
   count per token inside the bucket; rows leave as (doc_id, tok, df);
3. ``co_shuffle`` on the doc reassembles each doc's token set, orders
   it by (df, tok) — the same total order dense DF-ranks induced, no
   rank table needed anywhere — and emits prefix rows
   (tok, doc_id, full token set as a list column);
4. ``co_shuffle`` on the prefix token verifies candidates in-bucket
   with a boolean-membership matmul, capped + logged per token
   (dedup.py discipline); sets never ride a second exchange;
5. an id-pair distinct collapses pairs that met under several prefix
   tokens.

Every exchange moves O(doc-token pairs) fixed-width rows over
``shuffle_width`` buckets; tokenization runs once; driver memory is
O(1).

Token identity is a 64-bit siphash (pandas ``hash_array``): two
distinct tokens colliding would merge their df counts and could
miscount one intersection — probability ~ vocab^2 / 2^64 (~1e-12 at a
1e3 vocab, ~3e-9 at 1e6); documented, not hidden.
"""

from __future__ import annotations

import logging
import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle, distinct_reduce
from .text import WORD_SPLIT

logger = logging.getLogger(__name__)

_PAIR = pa.schema(
    [
        ("id_a", pa.int64()),
        ("id_b", pa.int64()),
        ("inter", pa.int64()),
        ("uni", pa.int64()),
    ]
)


def _doc_token_hashes(batch: pa.Table, text_col: str, id_col: str):
    """Per doc: sorted DISTINCT token hashes.  Returns (ids, list of
    np arrays)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    toks = pc.split_pattern_regex(
        pc.utf8_trim_whitespace(pc.cast(batch[text_col], pa.string())),
        WORD_SPLIT,
    )
    flat = toks.combine_chunks() if hasattr(toks, "combine_chunks") else toks
    offs = flat.offsets.to_numpy(zero_copy_only=False)
    vals = np.asarray(flat.values.to_pylist(), dtype=object)
    h = pd.util.hash_array(vals).astype(np.int64)
    sets = []
    for i in range(ids.size):
        sets.append(np.unique(h[offs[i] : offs[i + 1]]))
    return ids, sets


def jaccard_set_join(
    ds,
    tau100: int = 60,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_key_bucket: int = 4096,
):
    """-> (id_a, id_b, inter, uni) for every unordered doc pair with
    100 * |A∩B| >= tau100 * |A∪B| over distinct whitespace tokens
    (id_a < id_b; docs with empty token sets never pair)."""
    if not 0 < tau100 <= 100:
        raise ValueError("jaccard_set_join: tau100 must be in (0, 100]")

    # ---- stage 1: explode docs to (doc_id, tok) distinct rows --------
    def _explode(batch: pa.Table) -> pa.Table:
        ids, sets = _doc_token_hashes(batch, text_col, id_col)
        if not sets:
            return pa.table({
                "id": pa.array([], pa.int64()),
                "tok": pa.array([], pa.int64()),
            })
        lens = np.asarray([s.size for s in sets], np.int64)
        tok = (np.concatenate(sets) if lens.sum()
               else np.empty(0, np.int64)).astype(np.int64)
        did = np.repeat(ids, lens)
        return pa.table({
            "id": pa.array(did, pa.int64()),
            "tok": pa.array(tok, pa.int64()),
        })

    # ---- stage 2: global df per token, attached inside its bucket ----
    def _attach_df(group: pa.Table) -> pa.Table:
        tok = group["tok"].to_numpy(zero_copy_only=False)
        did = group["id"].to_numpy(zero_copy_only=False)
        # rows are per-doc-distinct, so df(tok) == row count per token
        uniq, inv, cnt = np.unique(tok, return_inverse=True,
                                   return_counts=True)
        return pa.table({
            "id": pa.array(did, pa.int64()),
            "tok": pa.array(tok, pa.int64()),
            "df": pa.array(cnt[inv].astype(np.int64), pa.int64()),
        })

    # ---- stage 3: per-doc prefix emission in (df, tok) order ---------
    def _emit(group: pa.Table) -> pa.Table:
        did = group["id"].to_numpy(zero_copy_only=False)
        tok = group["tok"].to_numpy(zero_copy_only=False)
        dfc = group["df"].to_numpy(zero_copy_only=False)
        # (doc, df, tok) lexsort == per-doc rarest-first segments; this
        # is exactly the order dense global DF-ranks would induce
        order = np.lexsort((tok, dfc, did))
        did, tok = did[order], tok[order]
        starts = np.flatnonzero(
            np.concatenate(([True], did[1:] != did[:-1])))
        ends = np.append(starts[1:], did.size)
        out_key, out_id, out_set = [], [], []
        for s, e in zip(starts, ends):
            n = e - s
            p = n - math.ceil(tau100 * n / 100) + 1
            full = tok[s:e]
            for k in full[:p]:
                out_key.append(k)
                out_id.append(did[s])
                out_set.append(full)
        if not out_key:
            return pa.table({
                "r": pa.array([], pa.int64()),
                "id": pa.array([], pa.int64()),
                "set": pa.array([], pa.list_(pa.int64())),
            })
        return pa.table({
            "r": pa.array(np.asarray(out_key, np.int64), pa.int64()),
            "id": pa.array(np.asarray(out_id, np.int64), pa.int64()),
            "set": pa.array(out_set, pa.list_(pa.int64())),
        })

    def _pairs(group: pa.Table) -> pa.Table:
        # per-key verification is a boolean-membership MATMUL, not a
        # per-pair loop: group tokens remap to local columns, M is the
        # (docs x local-vocab) 0/1 matrix, M @ M.T is every pairwise
        # intersection count at BLAS speed
        r = group["r"].to_numpy(zero_copy_only=False)
        ids = group["id"].to_numpy(zero_copy_only=False)
        set_col = group["set"].combine_chunks()
        offs = set_col.offsets.to_numpy(zero_copy_only=False)
        vals = set_col.values.to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, r))
        starts = np.flatnonzero(
            np.concatenate(([True], r[order][1:] != r[order][:-1]))
        )
        ends = np.append(starts[1:], r.size)
        oa, ob, oi, ou = [], [], [], []
        for s, e in zip(starts, ends):
            rows = order[s:e]
            c = rows.size
            if c < 2:
                continue
            if c > max_key_bucket:
                logger.warning(
                    "jaccard_set_join: token with %d prefix entries over "
                    "max_key_bucket=%d — candidates truncated",
                    c, max_key_bucket,
                )
                rows = rows[:max_key_bucket]
                c = rows.size
            lens = offs[rows + 1] - offs[rows]
            flat = np.concatenate([vals[offs[j] : offs[j + 1]] for j in rows])
            local, inv = np.unique(flat, return_inverse=True)
            m = np.zeros((c, local.size), np.float32)
            rowidx = np.repeat(np.arange(c), lens)
            m[rowidx, inv] = 1.0
            inter = (m @ m.T).astype(np.int64)
            sz = lens.astype(np.int64)
            uni = sz[:, None] + sz[None, :] - inter
            ok = 100 * inter >= tau100 * uni
            iu, ju = np.triu_indices(c, k=1)
            keep = ok[iu, ju] & (ids[rows][iu] != ids[rows][ju])
            iu, ju = iu[keep], ju[keep]
            ga, gb = ids[rows][iu], ids[rows][ju]
            lo = np.minimum(ga, gb)
            hi = np.maximum(ga, gb)
            oa.append(lo)
            ob.append(hi)
            oi.append(inter[iu, ju])
            ou.append(uni[iu, ju])
        if not oa:
            return _PAIR.empty_table()
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(oa), pa.int64()),
                "id_b": pa.array(np.concatenate(ob), pa.int64()),
                "inter": pa.array(np.concatenate(oi), pa.int64()),
                "uni": pa.array(np.concatenate(ou), pa.int64()),
            }
        )

    with_df = co_shuffle(ds.map_batches(_explode, batch_format="pyarrow"), "tok", _attach_df)
    verified = co_shuffle(co_shuffle(with_df, "id", _emit), "r", _pairs)
    # cross-bucket distinct (a pair can qualify under prefix tokens in
    # different buckets); inter/uni are identical on every copy —
    # bucketed vectorized reduce, not Ray's per-group hash aggregate
    return distinct_reduce(
        verified, ["id_a", "id_b"], aggs={"inter": "max", "uni": "max"})
