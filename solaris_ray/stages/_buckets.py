"""Shared shuffle-bucket hash, the shuffle width and the sized co-shuffle.

One definition of the Knuth multiplicative bucket key used by the
bucketed co-shuffle stages (triangles, pagerank, funnel, ...) so the
constant and modulo semantics cannot silently diverge between
operators.  numpy's Python-style ``%`` keeps the result non-negative
even when the int64 product wraps.

``shuffle_width`` is the one sizing policy: it follows the session and
the input, never a fixed count.  ``co_shuffle`` (the mask family),
``distinct_reduce`` and the graph family (``bfs_hops``, ``sssp_dist``,
``pagerank``, ``kcore``, ``triangle_counts``,
``link_prediction_scores``) take their bucket count and every
repartition from it.  Iterative operators compute it once from their
input before the first round: the block count of unioned per-round
state grows every round (NOTES round 4i).
"""

from __future__ import annotations

import numpy as np

from ..runtime import session_cpus


def bucket_of(x: np.ndarray, n_buckets: int) -> np.ndarray:
    return ((x * np.int64(2654435761)) % np.int64(n_buckets)).astype(np.int64)


def shuffle_width(ds) -> int:
    """Blocks for a shuffle of ``ds``: the session's CPU count, or the
    input's planned block count when that is larger.  The first lets a
    one-block input use every CPU; the second keeps the average shuffle
    task no larger than the average input block."""
    return max(session_cpus(), ds._plan.initial_num_blocks() or 1)


def co_shuffle(ds, key: str, fn, n_buckets: int | None = None):
    """``ds.groupby(key).map_groups(fn)`` over ``n_buckets`` blocks,
    ``shuffle_width(ds)`` by default.  The groupby sort keeps its
    input's block count, so a ``repartition`` sets the width first."""
    n = n_buckets or shuffle_width(ds)
    return ds.repartition(n).groupby(key).map_groups(fn, batch_format="pyarrow")


def distinct_reduce(ds, key_cols: list[str], aggs: dict[str, str] | None = None):
    """Exact distinct / grouped min-max over int64-keyed rows: ONE
    bucketed co-shuffle over ``shuffle_width(ds)`` buckets + a
    vectorized in-bucket segment reduce.

    Replaces ``ds.groupby(key_cols).count()/aggregate(Min/Max)`` for
    the pair-distinct shape: Ray's hash aggregate spends ~100 us of
    CPU per GROUP (measured 27 s CPU / 3.3 s wall for a 262k-pair
    distinct at sf0.1), while this runs lexsort + reduceat per bucket
    in microseconds per thousand rows.  ``aggs`` maps value columns to
    "min" | "max" | "sum"; output columns keep their input names.
    Same exactness: all copies of a key meet in one bucket (hash of
    the mixed key), segments reduce vectorized.

    float64 key columns are supported through an order-irrelevant
    bit-view (−0.0 normalized to +0.0 so the two zero encodings
    group together) and come back out as float64.  A NaN key raises
    ``ValueError``: NaN has many bit patterns and equals nothing, so it
    has no well-defined group.
    """
    import pyarrow as pa

    aggs = aggs or {}
    width = shuffle_width(ds)

    def _as_i64(b: pa.Table, c: str) -> np.ndarray:
        a = b[c].to_numpy(zero_copy_only=False)
        if a.dtype == np.float64:
            if np.isnan(a).any():
                raise ValueError(f"distinct_reduce: NaN in key column {c!r}")
            return (a + 0.0).view(np.int64)  # +0.0 folds -0.0 into +0.0
        return a.astype(np.int64)

    def _tag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column("__db", pa.array([], pa.int64()))
        mix = _as_i64(b, key_cols[0]).copy()
        for c in key_cols[1:]:
            mix = mix * np.int64(1000003) + _as_i64(b, c)
        return b.append_column("__db", pa.array(bucket_of(mix, width)))

    def _reduce(group: pa.Table) -> pa.Table:
        is_f = [group[c].to_numpy(zero_copy_only=False).dtype == np.float64
                for c in key_cols]
        ks = [_as_i64(group, c) for c in key_cols]
        order = np.lexsort(ks[::-1])
        ks = [k[order] for k in ks]
        n = ks[0].size
        new = np.ones(n, bool)
        if n > 1:
            acc = np.zeros(n - 1, bool)
            for k in ks:
                acc |= k[1:] != k[:-1]
            new[1:] = acc
        starts = np.flatnonzero(new)
        out = {
            c: (pa.array(k[starts].view(np.float64), pa.float64()) if f
                else pa.array(k[starts], pa.int64()))
            for c, k, f in zip(key_cols, ks, is_f)
        }
        for c, how in aggs.items():
            v = group[c].to_numpy(zero_copy_only=False)[order]
            if how == "max":
                red = np.maximum.reduceat(v, starts)
            elif how == "min":
                red = np.minimum.reduceat(v, starts)
            elif how == "sum":
                red = np.add.reduceat(v, starts)
            else:
                raise ValueError(f"unknown agg {how}")
            out[c] = pa.array(red)
        return pa.table(out)

    return (
        ds.map_batches(_tag, batch_format="pyarrow")
        .groupby("__db")
        .map_groups(_reduce, batch_format="pyarrow")
    )
