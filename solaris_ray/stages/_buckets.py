"""The one bucket co-shuffle, its key hash and its width.

``co_shuffle`` is the one shuffle that brings every row of a key
together: each row is tagged with ``bucket_of(mix, n)`` over its mixed
key, the input is repartitioned to ``n`` blocks and grouped on the tag,
and ``fn`` runs once per BUCKET -- every row of every key that hashes
there, tag column dropped.  A bucket kernel (lexsort + segment reduce)
then handles many keys per call with no per-key Python dispatch.
Callers whose kernel takes one key at a time wrap it in ``per_key``.

``key_i64`` turns one int or float64 key column into exact int64
values: ints are cast, float64 is bit-viewed with -0.0 folded into
+0.0.  A null or NaN key has no well-defined group, and a string key
has no exact int64 form; each raises ``ValueError`` naming the column.
Only the tag pass hashes: a string key column is tagged by the
``zlib.crc32`` of its UTF-8 bytes (stable across processes, unlike the
salted ``hash()``).  Keys that collide there share a bucket, never a
group: the kernel segments on the key itself.

``bucket_of`` is the Knuth multiplicative bucket key; numpy's
Python-style ``%`` keeps it non-negative even when the int64 product
wraps.  ``shuffle_width`` is the one sizing policy: it follows the
session and the input, never a fixed count.  ``co_shuffle`` takes its
bucket count from it for every keyed stage outside the graph family:
the mask and event families, ``distinct_reduce``, ``cdc``,
``cooccur``, ``corpus``, ``dbscan``, ``editdist``, ``hull``,
``moran``, ``ntile``, ``profile``, ``ranktest``, ``ripley``,
``setjoin`` and the keyed gates of ``pipelines/queries.py``.  The
graph family (``bfs_hops``, ``sssp_dist``, ``pagerank``, ``kcore``,
``triangle_counts``, ``link_prediction_scores``) tags with
``bucket_of`` itself and repartitions once per round; it computes the
width once from its input before the first round: the block count of
unioned per-round state grows every round (NOTES round 4i).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..runtime import session_cpus

_TAG = "__bucket"


def bucket_of(x: np.ndarray, n_buckets: int) -> np.ndarray:
    return ((x * np.int64(2654435761)) % np.int64(n_buckets)).astype(np.int64)


def shuffle_width(ds) -> int:
    """Blocks for a shuffle of ``ds``: the session's CPU count, or the
    input's planned block count when that is larger.  The first lets a
    one-block input use every CPU; the second keeps the average shuffle
    task no larger than the average input block."""
    return max(session_cpus(), ds._plan.initial_num_blocks() or 1)


def key_i64(batch: pa.Table, col: str) -> np.ndarray:
    """Column ``col`` of ``batch`` as exact int64: equal keys give equal
    values and distinct keys distinct ones.  Ints are cast, float64 is
    bit-viewed; null, NaN and string keys raise ``ValueError``."""
    a = batch[col]
    if a.null_count:
        raise ValueError(f"null in key column {col!r}")
    if _is_string(a.type):
        raise ValueError(f"string in key column {col!r}: exact int64 keys are int or float64")
    v = a.to_numpy(zero_copy_only=False)
    if v.dtype == np.float64:
        if np.isnan(v).any():
            raise ValueError(f"NaN in key column {col!r}")
        return (v + 0.0).view(np.int64)  # +0.0 folds -0.0 into +0.0
    return v.astype(np.int64)


def _is_string(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _tag_i64(batch: pa.Table, col: str) -> np.ndarray:
    """``key_i64``, except that a string column hashes to its crc32,
    once per distinct value of the batch: lossy, so only for a tag."""
    a = batch[col]
    if a.null_count or not _is_string(a.type):
        return key_i64(batch, col)  # exact, or the named error
    enc = a.combine_chunks().dictionary_encode()
    crc = np.array([zlib.crc32(s.encode("utf-8")) for s in enc.dictionary.to_pylist()],
                   np.int64)
    return crc[enc.indices.to_numpy(zero_copy_only=False)]


def co_shuffle(ds, keys, fn, n_buckets: int | None = None):
    """Run ``fn`` once per bucket of ``ds`` hashed on ``keys`` (one
    column name or a list), over ``n_buckets`` blocks --
    ``shuffle_width(ds)`` by default.  Every row of a key arrives in the
    same ``fn`` call.  The groupby sort keeps its input's block count,
    so a ``repartition`` sets the width first."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    n = n_buckets or shuffle_width(ds)

    def _tag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column(_TAG, pa.array([], pa.int64()))
        mix = _tag_i64(b, keys[0])
        for c in keys[1:]:
            mix = mix * np.int64(1000003) + _tag_i64(b, c)
        return b.append_column(_TAG, pa.array(bucket_of(mix, n), pa.int64()))

    return (
        ds.map_batches(_tag, batch_format="pyarrow")
        .repartition(n)
        .groupby(_TAG)
        .map_groups(lambda g: fn(g.drop_columns([_TAG])), batch_format="pyarrow")
    )


def per_key(key: str, fn):
    """Wrap a one-key ``fn`` for ``co_shuffle``: sort the bucket by
    ``key`` and call ``fn`` once per run of equal keys."""

    def _run(bucket: pa.Table) -> pa.Table:
        bucket = bucket.take(pc.sort_indices(bucket, [(key, "ascending")]))
        k = bucket[key].to_numpy(zero_copy_only=False)
        cuts = np.r_[0, np.flatnonzero(k[1:] != k[:-1]) + 1, k.size]
        return pa.concat_tables([fn(bucket.slice(s, e - s))
                                 for s, e in zip(cuts[:-1], cuts[1:])])

    return _run


def distinct_reduce(ds, key_cols: list[str], aggs: dict[str, str] | None = None):
    """Exact distinct / grouped min-max-sum over int64 or float64 keys:
    one ``co_shuffle`` on ``key_cols`` + a vectorized in-bucket segment
    reduce.

    Replaces ``ds.groupby(key_cols).count()/aggregate(Min/Max)`` for
    the pair-distinct shape: Ray's hash aggregate spends ~100 us of
    CPU per GROUP (measured 27 s CPU / 3.3 s wall for a 262k-pair
    distinct at sf0.1), while this runs lexsort + reduceat per bucket
    in microseconds per thousand rows.  ``aggs`` maps value columns to
    "min" | "max" | "sum"; output columns keep their input names.

    float64 keys group through ``key_i64``'s bit view (−0.0 and +0.0
    are one key) and come back out as float64; a NaN, null or string
    key raises ``ValueError``.
    """
    aggs = aggs or {}

    def _reduce(group: pa.Table) -> pa.Table:
        is_f = [group[c].type == pa.float64() for c in key_cols]
        ks = [key_i64(group, c) for c in key_cols]
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

    return co_shuffle(ds, key_cols, _reduce)
