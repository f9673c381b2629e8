"""NTILE(k) — SQL window-function equi-count bucketing per group.

Training-data curation uses length/score deciles within a stratum
(e.g. per-language document-length deciles to balance a mixture);
SQL spells it ``NTILE(k) OVER (PARTITION BY g ORDER BY v, id)``.
Exact SQL semantics: a partition of n rows splits into k buckets
whose sizes differ by at most one, larger buckets first — rank r
(0-based, ties broken by the id column so the order is total and
deterministic) maps to

    q, rem = divmod(n, k)
    bucket = r // (q + 1) + 1                          if r < rem * (q + 1)
           = rem + (r - rem * (q + 1)) // q + 1        otherwise

ONE ``co_shuffle`` keyed on the partition column: every row of a
partition lands in one bucket, a lexsort-segment kernel computes ranks
for ALL partitions in the bucket at once (segmented on the partition
value itself, dictionary-encoded, so two partitions that share a
bucket never merge), and the closed-form map above assigns buckets —
no per-partition Python dispatch.

Partitioning assumption (SURVEY custom-operator rule): one partition's
rows fit in one group's memory (same assumption as the repo's
group_quantiles / rank stages); the skew escape for a monster
partition is pre-aggregating duplicates, not needed at gate scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle


def _segments(group: pa.Table, group_col: str, val_col: str, id_col: str):
    """Sort a bucket by (partition, val, id).  -> (order, v, id, new,
    r, n): the sort permutation, sorted vals and ids, the first-row
    flag of each partition, each row's 0-based row number and its
    partition's row count."""
    g = group[group_col].combine_chunks().dictionary_encode().indices
    g = g.to_numpy(zero_copy_only=False)
    v = group[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
    i = group[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((i, v, g))
    g_s = g[order]
    new = np.ones(g_s.size, bool)
    new[1:] = g_s[1:] != g_s[:-1]
    seg_start = np.flatnonzero(new)
    seg_id = np.cumsum(new) - 1
    n_per = np.diff(np.append(seg_start, g_s.size))
    r = np.arange(g_s.size) - seg_start[seg_id]
    return order, v[order], i[order], new, r, n_per[seg_id]


def _shuffle(ds, group_col: str, val_col: str, id_col: str, kernel, out_schema):
    def _assign(group: pa.Table) -> pa.Table:
        order, v_s, i_s, new, r, n = _segments(group, group_col, val_col, id_col)
        return pa.table({
            id_col: pa.array(i_s, pa.int64()),
            group_col: group[group_col].take(pa.array(order)),
            val_col: pa.array(v_s, pa.int64()),
            out_schema.names[-1]: pa.array(kernel(v_s, new, r, n), pa.int64()),
        })

    def _pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        return batch.select(out_schema.names)

    proj = ds.select_columns([id_col, group_col, val_col])
    return co_shuffle(proj, group_col, _assign).map_batches(_pin, batch_format="pyarrow")


def group_ntile(
    ds,
    group_col: str,
    val_col: str,
    id_col: str,
    k: int = 10,
):
    """-> (id, group, val, bucket) with bucket = NTILE(k) within the
    group ordered by (val, id).  Group keys may be strings; the shuffle
    hashes them and the kernel segments on the values themselves."""
    if k < 1:
        raise ValueError("k must be >= 1")

    out_schema = pa.schema(
        [(id_col, pa.int64()), (group_col, pa.string()),
         (val_col, pa.int64()), ("bucket", pa.int64())]
    )

    def _ntile(v_s, new, r, n):
        q, rem = n // k, n % k
        big_span = rem * (q + 1)
        in_big = r < big_span
        return np.where(
            in_big,
            r // np.maximum(q + 1, 1) + 1,
            rem + np.where(q > 0, (r - big_span) // np.maximum(q, 1), 0) + 1,
        ).astype(np.int64)

    return _shuffle(ds, group_col, val_col, id_col, _ntile, out_schema)


def group_percent_rank(
    ds,
    group_col: str,
    val_col: str,
    id_col: str,
    scale: int = 10**6,
):
    """SQL ``PERCENT_RANK() OVER (PARTITION BY g ORDER BY v)`` in exact
    micro-units: pr = (rank - 1) * scale // (n - 1), where rank is the
    TIES-SHARE rank (1 + count of strictly smaller values) and a
    single-row partition gets 0 (the SQL convention).  Same one-shuffle
    plan as :func:`group_ntile`."""
    out_schema = pa.schema(
        [(id_col, pa.int64()), (group_col, pa.string()),
         (val_col, pa.int64()), ("pr_micro", pa.int64())]
    )

    def _percent_rank(v_s, new, r, n):
        # ties share the rank of their FIRST row: a new value within
        # the partition -> rank jumps to the row number
        vnew = new.copy()
        vnew[1:] |= v_s[1:] != v_s[:-1]
        rank0 = r[np.flatnonzero(vnew)][np.cumsum(vnew) - 1]
        return np.where(n > 1, rank0 * scale // np.maximum(n - 1, 1), 0).astype(np.int64)

    return _shuffle(ds, group_col, val_col, id_col, _percent_rank, out_schema)
