"""The one bucket co-shuffle, its key hash and its width; the one
single-task runner.

``co_shuffle`` is the one shuffle that brings every row of a key
together: each row is tagged with ``bucket_of(mix, n)`` over its mixed
key, one sort with a range boundary between each two tags writes one
block per tag, and ``fn`` runs once per BUCKET -- every row of every
key that hashes there, tag column dropped.  At width 1 there is no tag
and no sort: one map task runs ``fn`` once over every row of the input.
A bucket kernel (lexsort + segment reduce) then handles many keys per
call with no per-key Python dispatch.
Callers whose kernel takes one key at a time wrap it in ``per_key``.

``key_i64`` turns one int or float64 key column into exact int64
values: ints are cast, float64 is bit-viewed with -0.0 folded into
+0.0.  A null or NaN key has no well-defined group, and a string key
has no exact int64 form; each raises ``ValueError`` naming the column.
Only the tag pass hashes: a string key column is tagged by the
``zlib.crc32`` of its UTF-8 bytes (stable across processes, unlike the
salted ``hash()``).  Keys that collide there share a bucket, never a
group: the kernel segments on the key itself.

``bucket_of`` is the Knuth multiplicative bucket key, used only as
``co_shuffle``'s tag hash; numpy's Python-style ``%`` keeps it
non-negative even when the int64 product wraps.  ``shuffle_width`` is
the one sizing policy: it follows the session and the input, never a
fixed count.  ``co_shuffle`` runs the mask, event and graph families,
``distinct_reduce``, the cell-partitioned spatial join
(``joins.cell_partitioned_join``, keyed on the join cell) and the once
hand-hashed keyed shuffles of ``stages/`` and
``pipelines/queries.py``, the eval matcher of ``evaluate`` (keyed on
the image), and every per-key top-k through ``top_k``.  It is not yet
the only keyed exchange: other stages still call Ray's
``groupby(key).map_groups`` themselves, among them ``zonal``,
``windows``, ``export``, the LSH buckets of ``dedup`` and the
``(band, key)`` candidates of ``ann.hamming_topk_banded``.
``tests/test_buckets.py`` lists those modules; the list may only shrink.
Most ``co_shuffle`` callers take the width from ``shuffle_width`` of
the input they shuffle.  The graph family (``sssp_dist`` and ``bfs_hops``,
``pagerank``, ``kcore``,
``triangle_counts``, ``link_prediction_scores`` and the star rounds of
``connected_components``) computes it once from its input, before the
first round, and passes it to every round: the block count of unioned
per-round state grows every round (NOTES round 4i), and a width read
from it would grow too.  ``co_shuffle`` writes exactly that many
blocks, so no round repartitions.

``top_k`` is the one per-key top-k: one Arrow sort per bucket on the
key and the caller's order columns, then the first ``k`` rows of each
run of equal keys, ranked from 1.  It merges the per-batch partial
cuts of ``ann``'s brute, filtered and Hamming searches, of ``knn``'s
straggler pass and ``haversine_topk``, of ``pq.pq_adc_topk`` and of
``split.stratified_sample``, ranks ``tfidf_topk``'s terms and picks
``dedup``'s exact-vector representatives (k = 1 by id).  A caller
that wants another ``rank`` dtype or column order selects or casts.

``one_task`` is the small-input plan of the graph family: one remote
task over the whole of each dataset.  ``SMALL_EDGE_LIMIT`` is the one
default edge count at or below which those stages take it.
"""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..runtime import session_cpus

_TAG = "__bucket"

# edges at or below which a graph stage runs in ``one_task``: 8 MB of
# (src, dst) int64 pairs, where per-round shuffles are pure latency
SMALL_EDGE_LIMIT = 500_000


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
    same ``fn`` call, and no call gets zero rows.  The sort is given its
    boundaries: a sampled range partition (Ray's ``groupby``) can put
    two tags in one block and leave another empty, and it keeps its
    input's block count.  One bucket needs neither tag nor sort: one map
    task over all of ``ds`` makes the one ``fn`` call, or none when
    ``ds`` has no rows."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    n = n_buckets or shuffle_width(ds)

    def _mix(b: pa.Table) -> np.ndarray:
        mix = _tag_i64(b, keys[0])
        for c in keys[1:]:
            mix = mix * np.int64(1000003) + _tag_i64(b, c)
        return mix

    def _tag(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column(_TAG, pa.array([], pa.int64()))
        return b.append_column(_TAG, pa.array(bucket_of(_mix(b), n), pa.int64()))

    def _run(bucket: pa.Table):
        if bucket.num_rows:
            yield fn(bucket.drop_columns([_TAG]))

    def _all(b: pa.Table):
        if b.num_rows:
            _mix(b)  # no tag, but the same named errors for null and NaN keys
            yield fn(b)

    if n == 1:
        # a batch size that no input reaches bundles every block into
        # one task and one batch
        return ds.map_batches(_all, batch_format="pyarrow", batch_size=1 << 62)
    # a boundary between each two tags: one sorted block per bucket
    return (
        ds.map_batches(_tag, batch_format="pyarrow")
        .sort(_TAG, boundaries=[b + 0.5 for b in range(n - 1)])
        .map_batches(_run, batch_format="pyarrow", batch_size=None)
    )


def one_task(fn, *datasets):
    """Run ``fn`` once, in one remote task, over the whole of each of
    ``datasets`` -> a one-block dataset of the table ``fn`` returns.
    ``fn`` gets one ``pa.Table`` per dataset: its blocks concatenated,
    blocks without columns (empty shuffle partitions) dropped, and a
    table with no columns when none is left (read it through
    ``int_column``).  Blocks travel as object-store refs; the caller
    never holds them."""
    import ray
    import ray.data

    refs = [ds.to_arrow_refs() for ds in datasets]

    @ray.remote
    def _run(counts, *blocks):
        tables, at = [], 0
        for n in counts:
            kept = [b for b in blocks[at:at + n] if b.num_columns]
            tables.append(pa.concat_tables(kept, promote_options="permissive")
                          if kept else pa.table({}))
            at += n
        return fn(*tables)

    ref = _run.remote([len(r) for r in refs], *itertools.chain.from_iterable(refs))
    return ray.data.from_arrow_refs([ref])


def int_column(t: pa.Table, col: str) -> np.ndarray:
    """Column ``col`` of a ``one_task`` table as int64; empty when the
    table has no such column."""
    if col not in t.column_names:
        return np.empty(0, np.int64)
    return t[col].to_numpy().astype(np.int64)


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


def top_k(ds, key: str, order: list, k: int):
    """The ``k`` first rows of each ``key`` under ``order`` -- a list of
    ``(column, "ascending" | "descending")`` pairs -- with a 1-based
    int64 ``rank`` column appended: one ``co_shuffle`` on ``key`` and
    one Arrow sort per bucket.  Rows tied on every ``order`` column come
    in no fixed order, so a caller that needs one ends ``order`` with a
    unique column.  Float keys group as in ``key_i64`` (-0.0 is +0.0)."""

    def _cut(bucket: pa.Table) -> pa.Table:
        bucket = bucket.take(pc.sort_indices(bucket, [(key, "ascending"), *order]))
        keys = bucket[key].combine_chunks()
        n = len(keys)
        new = np.ones(n, bool)
        new[1:] = pc.not_equal(keys[1:], keys[:-1]).to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(new)
        rank = np.arange(1, n + 1) - starts[np.cumsum(new) - 1]
        keep = rank <= k
        return bucket.filter(pa.array(keep)).append_column("rank", pa.array(rank[keep]))

    return co_shuffle(ds, key, _cut)


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
