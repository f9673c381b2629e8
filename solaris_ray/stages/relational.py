"""Generic hash equi-joins (inner / left / full outer) — bucketed
co-shuffle, vectorized per-bucket merge.

Relational completeness for the engine: the spatial joins
(stages/joins.py) and the semi/anti joins (bloom, matchkeys) cover
their domains; this is the general two-table equi-join a reference
user reaches for first.  Shape: both sides in ONE union ``co_shuffle``
on the key; inside a bucket the merge is a sorted searchsorted
expansion (handles many-to-many), all numpy.  Unmatched rows surface
with nulls per the join mode.  A null key never matches, as in SQL:
inner drops its row, left keeps a null-key left row unmatched, outer
keeps the null-key rows of both sides unmatched.  Only the projected
columns shuffle — prune before calling.

Scale notes: hot keys spread over the buckets; a single degenerate
key (one value on both sides) degrades to one big bucket — the same
contract as every bucketed join in this engine, with the max_bucket
logging pattern available if a corpus needs it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle


BROADCAST_LIMIT = 2_000_000  # right-side rows below this fit one object


def hash_join(
    left,
    right,
    left_key: str,
    right_key: str,
    how: str = "inner",
    strategy: str = "shuffle",
):
    """Join two Datasets on int64-comparable keys.

    ``how``: inner | left | outer.  Output columns = left columns then
    right columns (key columns kept from both sides; unmatched side
    nulled).  Column names must not collide.

    ``strategy``: ``shuffle`` (``co_shuffle`` on the key — both sides any
    size), ``broadcast`` (right side shipped once via ``ray.put``,
    probe inside ``map_batches`` — NO shuffle; right side must fit one
    object; ``outer`` not supported, right-unmatched rows need a
    global view), or ``auto`` (count the right side, broadcast when it
    fits and ``how`` allows).  Both paths return bit-identical rows.
    """
    assert how in ("inner", "left", "outer")
    assert strategy in ("shuffle", "broadcast", "auto")
    if strategy == "auto":
        strategy = (
            "broadcast"
            if how != "outer" and right.count() <= BROADCAST_LIMIT
            else "shuffle"
        )
    if strategy == "broadcast":
        assert how != "outer", "broadcast cannot emit right-unmatched rows"
        return _broadcast_join(left, right, left_key, right_key, how)
    ls, rs = left.schema(), right.schema()  # ray.data.Schema wrappers
    l_names, l_types = list(ls.names), list(ls.types)
    r_names, r_types = list(rs.names), list(rs.types)
    l_schema = pa.schema(list(zip(l_names, l_types)))
    r_schema = pa.schema(list(zip(r_names, r_types)))
    out_schema = pa.schema(
        list(zip(l_names, l_types)) + list(zip(r_names, r_types))
    )

    def _tag(side: int, key: str):
        def _f(batch: pa.Table) -> pa.Table:
            k, null = _key(batch, key)
            cols = {
                # a null-key row rides as side 2 (left) or 3 (right): it
                # meets nothing and surfaces only as unmatched
                "__side": pa.array(side + 2 * null.astype(np.int64), pa.int64()),
                "__k": pa.array(k, pa.int64()),
            }
            names = l_names if side == 0 else r_names
            for n in names:
                cols[f"__{side}_{n}"] = batch[n]
            # null-typed placeholders for the other side keep the union
            # schema aligned
            other = r_names if side == 0 else l_names
            oside = 1 - side
            for n in other:
                t = (r_schema if side == 0 else l_schema).field(n).type
                cols[f"__{oside}_{n}"] = pa.nulls(k.size, t)
            return pa.table(cols)

        return _f

    # align column ORDER between the two union branches
    def _reorder(batch: pa.Table) -> pa.Table:
        order = ["__side", "__k"] + [f"__0_{n}" for n in l_names] + [
            f"__1_{n}" for n in r_names
        ]
        return batch.select(order)

    both = (
        left.map_batches(_tag(0, left_key), batch_format="pyarrow")
        .map_batches(_reorder, batch_format="pyarrow")
        .union(
            right.map_batches(_tag(1, right_key), batch_format="pyarrow")
            .map_batches(_reorder, batch_format="pyarrow")
        )
    )

    def _merge(group: pa.Table) -> pa.Table:
        side = group["__side"].to_numpy(zero_copy_only=False)
        k = group["__k"].to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        rk = k[ri]
        ro = np.argsort(rk, kind="stable")
        rk_s, ri_s = rk[ro], ri[ro]
        lk = k[li]
        lo_pos = np.searchsorted(rk_s, lk, side="left")
        hi_pos = np.searchsorted(rk_s, lk, side="right")
        counts = hi_pos - lo_pos
        # vectorized many-to-many expansion: left row i matches the
        # sorted-right slice [lo_pos[i], hi_pos[i])
        total = int(counts.sum())
        l_idx = np.repeat(li, counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        offsets = np.repeat(lo_pos, counts) + within
        r_idx = ri_s[offsets] if total else np.empty(0, np.int64)
        parts = [(l_idx, r_idx)]
        if how in ("left", "outer"):
            lm = np.concatenate([li[counts == 0], np.flatnonzero(side == 2)])
            parts.append((lm, np.full(lm.size, -1, np.int64)))
        if how == "outer":
            matched_r = np.zeros(rk_s.size, bool)
            if total:
                matched_r[offsets] = True
            rm = np.concatenate([ri_s[~matched_r], np.flatnonzero(side == 3)])
            parts.append((np.full(rm.size, -1, np.int64), rm))
        l_all = np.concatenate([p[0] for p in parts])
        r_all = np.concatenate([p[1] for p in parts])
        if l_all.size == 0:
            return out_schema.empty_table()
        cols = {}
        for n in l_names:
            src = group[f"__0_{n}"]
            taken = src.take(pa.array(np.where(l_all >= 0, l_all, 0)))
            if isinstance(taken, pa.ChunkedArray):
                taken = taken.combine_chunks()
            mask = pa.array(l_all < 0)
            cols[n] = pc.if_else(mask, pa.nulls(len(l_all), src.type), taken)
        for n in r_names:
            src = group[f"__1_{n}"]
            taken = src.take(pa.array(np.where(r_all >= 0, r_all, 0)))
            if isinstance(taken, pa.ChunkedArray):
                taken = taken.combine_chunks()
            mask = pa.array(r_all < 0)
            cols[n] = pc.if_else(mask, pa.nulls(len(r_all), src.type), taken)
        # pin types: a bucket with an empty side carries null-typed
        # placeholder columns — cast so every block matches out_schema
        return pa.table(cols).cast(out_schema)

    return co_shuffle(both, "__k", _merge)


def _key(batch: pa.Table, key: str):
    """-> (int64 key with nulls as 0, null mask) of column ``key``."""
    k = pc.cast(batch[key], pa.int64())
    return (pc.fill_null(k, 0).to_numpy(zero_copy_only=False),
            k.is_null().to_numpy(zero_copy_only=False))


def _broadcast_join(left, right, left_key: str, right_key: str, how: str):
    """Small-right-side path: one ``ray.put`` of the sorted right
    table, searchsorted probe per left batch — zero shuffles."""
    import ray

    rs = right.schema()
    r_names, r_types = list(rs.names), list(rs.types)
    r_schema = pa.schema(list(zip(r_names, r_types)))
    # Ray's sort path can emit EMPTY partitions as zero-column blocks
    # (documented engine-external quirk); drop them before the concat
    blocks = [t for t in ray.get(right.to_arrow_refs()) if t.num_rows]
    r_tbl = pa.concat_tables(blocks) if blocks else r_schema.empty_table()
    r_tbl = r_tbl.filter(pc.is_valid(r_tbl[right_key]))  # a null key never matches
    rk, _ = _key(r_tbl, right_key)
    order = np.argsort(rk, kind="stable")
    r_sorted = r_tbl.take(pa.array(order))
    rk_s = rk[order]
    bundle = ray.put((rk_s, r_sorted))

    ls = left.schema()
    l_names, l_types = list(ls.names), list(ls.types)
    out_schema = pa.schema(
        list(zip(l_names, l_types)) + list(zip(r_names, r_types))
    )

    def _probe(batch: pa.Table) -> pa.Table:
        keys_s, rt = ray.get(bundle)
        lk, null = _key(batch, left_key)
        lo = np.searchsorted(keys_s, lk, side="left")
        hi = np.searchsorted(keys_s, lk, side="right")
        counts = np.where(null, 0, hi - lo)
        total = int(counts.sum())
        l_idx = np.repeat(np.arange(lk.size, dtype=np.int64), counts)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        r_idx = np.repeat(lo, counts) + within
        parts_l, parts_r = [l_idx], [r_idx]
        if how == "left":
            lm = np.flatnonzero(counts == 0)
            parts_l.append(lm)
            parts_r.append(np.full(lm.size, -1, np.int64))
        l_all = np.concatenate(parts_l)
        r_all = np.concatenate(parts_r)
        if l_all.size == 0:
            return out_schema.empty_table()
        cols = {}
        for n in l_names:
            taken = batch[n].take(pa.array(l_all))
            cols[n] = taken.combine_chunks() if isinstance(
                taken, pa.ChunkedArray) else taken
        mask = pa.array(r_all < 0)
        safe = pa.array(np.where(r_all >= 0, r_all, 0))
        for n in r_names:
            taken = rt[n].take(safe)
            if isinstance(taken, pa.ChunkedArray):
                taken = taken.combine_chunks()
            cols[n] = pc.if_else(mask, pa.nulls(len(r_all), taken.type), taken)
        return pa.table(cols).cast(out_schema)

    return left.map_batches(_probe, batch_format="pyarrow", batch_size=4096)
