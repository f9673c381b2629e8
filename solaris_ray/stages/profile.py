"""Table profiling — per-column exact stats for ingest QA.

Per column: row count, null count, exact distinct count, min/max
(value for int64 columns, byte length for string columns).  The
schema-drift detector a production corpus runs on every ingest batch.

Scale shape (the repo idiom, NOT a string-keyed multi-aggregate
groupby — that path measured 10x slower): every batch reduces each
column to its DISTINCT (value, count) partials with ``np.unique``,
numeric partials ride one (column, value) ``co_shuffle`` and combine with
a lexsort-segment pass, string partials (low-cardinality by nature —
a high-cardinality string column profile wants a sketch, not exact
distinct) combine per column.  Bucket partials collapse in one final
vocabulary-sized pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle

_SCHEMA = pa.schema(
    [("col", pa.string()), ("n", pa.int64()), ("n_null", pa.int64()),
     ("n_distinct", pa.int64()), ("vmin", pa.int64()), ("vmax", pa.int64())]
)


def profile_table(ds, int_cols: dict, str_cols: list[str]):
    """``int_cols``: {output_name: fn(batch) -> int64 ndarray (may
    contain the caller's encoding, e.g. cents)}; ``str_cols``: string
    column names profiled by exact distinct + byte-length min/max.

    -> one row per column: (col, n, n_null, n_distinct, vmin, vmax).
    """
    import ray

    names = sorted(int_cols)

    def _num_partial(batch: pa.Table) -> pa.Table:
        codes, vals, cnts = [], [], []
        for ci, name in enumerate(names):
            v = int_cols[name](batch)
            uv, cnt = np.unique(v, return_counts=True)
            codes.append(np.full(uv.size, ci, np.int64))
            vals.append(uv.astype(np.int64))
            cnts.append(cnt.astype(np.int64))
        return pa.table(
            {
                "c": pa.array(np.concatenate(codes), pa.int64()),
                "v": pa.array(np.concatenate(vals), pa.int64()),
                "n": pa.array(np.concatenate(cnts), pa.int64()),
            }
        )

    part_schema = pa.schema(
        [("c", pa.int64()), ("n", pa.int64()), ("d", pa.int64()),
         ("vmin", pa.int64()), ("vmax", pa.int64())]
    )

    def _bucket_combine(group: pa.Table) -> pa.Table:
        c = group["c"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        n = group["n"].to_numpy(zero_copy_only=False)
        if c.size == 0:
            return part_schema.empty_table()
        o = np.lexsort((v, c))
        c, v, n = c[o], v[o], n[o]
        newv = np.r_[True, (c[1:] != c[:-1]) | (v[1:] != v[:-1])]
        segv = np.cumsum(newv) - 1
        # per distinct (col, value): summed count; then per col
        dc = c[newv]
        dv = v[newv]
        newc = np.r_[True, dc[1:] != dc[:-1]]
        segc = np.cumsum(newc) - 1
        ncols = int(segc[-1]) + 1
        # counts per col: sum raw row counts grouped by column
        tot = np.zeros(ncols, np.int64)
        colstarts = np.flatnonzero(newc)
        col_of_row = segc[segv]
        np.add.at(tot, col_of_row, n)
        dist = np.bincount(segc, minlength=ncols).astype(np.int64)
        vmin = np.minimum.reduceat(dv, colstarts)
        vmax = np.maximum.reduceat(dv, colstarts)
        return pa.table(
            {
                "c": pa.array(dc[newc], pa.int64()),
                "n": pa.array(tot, pa.int64()),
                "d": pa.array(dist, pa.int64()),
                "vmin": pa.array(vmin, pa.int64()),
                "vmax": pa.array(vmax, pa.int64()),
            }
        )

    num = co_shuffle(
        ds.map_batches(_num_partial, batch_format="pyarrow", batch_size=16384),
        ["c", "v"], _bucket_combine)
    parts = list(num.iter_batches(batch_format="pyarrow"))
    rows = {}
    if parts:
        t = pa.concat_tables(parts)
        c = t["c"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        d = t["d"].to_numpy(zero_copy_only=False)
        mn = t["vmin"].to_numpy(zero_copy_only=False)
        mx = t["vmax"].to_numpy(zero_copy_only=False)
        for ci, name in enumerate(names):
            m = c == ci
            if not m.any():
                continue
            rows[name] = (int(n[m].sum()), 0, int(d[m].sum()),
                          int(mn[m].min()), int(mx[m].max()))
    # empty input still profiles every column (n=0, NULL range — the
    # SQL twin's COUNT/MIN semantics), not zero rows
    for name in names:
        rows.setdefault(name, (0, 0, 0, None, None))

    # string columns: per-batch distinct partials, tiny final combine
    def _str_partial(batch: pa.Table) -> pa.Table:
        codes, svs, cnts, nulls = [], [], [], []
        for ci, name in enumerate(str_cols):
            arr = np.asarray(batch[name].to_pylist(), dtype=object)
            isnull = np.array([x is None for x in arr], dtype=bool)
            vals = arr[~isnull]
            uv, cnt = np.unique(vals.astype(str), return_counts=True)
            codes.append(np.full(uv.size, ci, np.int64))
            svs.append(uv.astype(object))
            cnts.append(cnt.astype(np.int64))
            nulls.append(np.full(uv.size, 0, np.int64))
            if isnull.any():
                codes.append(np.array([ci], np.int64))
                svs.append(np.array([None], object))
                cnts.append(np.array([int(isnull.sum())], np.int64))
                nulls.append(np.array([1], np.int64))
        return pa.table(
            {
                "c": pa.array(np.concatenate(codes), pa.int64()),
                "sv": pa.array(np.concatenate(svs), pa.string()),
                "n": pa.array(np.concatenate(cnts), pa.int64()),
                "isnull": pa.array(np.concatenate(nulls), pa.int64()),
            }
        )

    def _str_combine(group: pa.Table) -> pa.Table:
        sv = np.asarray(group["sv"].to_pylist(), dtype=object)
        n = group["n"].to_numpy(zero_copy_only=False)
        isnull = group["isnull"].to_numpy(zero_copy_only=False).astype(bool)
        ci = int(group["c"][0].as_py())
        vals = sv[~isnull].astype(str)
        uv = np.unique(vals)
        n_null = int(n[isnull].sum())
        lens = np.fromiter((len(x.encode()) for x in uv), np.int64,
                           uv.size) if uv.size else np.zeros(1, np.int64)
        return pa.table(
            {
                "col": pa.array([str_cols[ci]], pa.string()),
                "n": pa.array([int(n.sum())], pa.int64()),
                "n_null": pa.array([n_null], pa.int64()),
                "n_distinct": pa.array([int(uv.size)], pa.int64()),
                "vmin": pa.array([int(lens.min())], pa.int64()),
                "vmax": pa.array([int(lens.max())], pa.int64()),
            }
        )

    if str_cols:
        sds = (
            ds.map_batches(_str_partial, batch_format="pyarrow",
                           batch_size=16384)
            .groupby("c")
            .map_groups(_str_combine, batch_format="pyarrow")
        )
        sparts = list(sds.iter_batches(batch_format="pyarrow"))
        stab = pa.concat_tables(sparts) if sparts else _SCHEMA.empty_table()
        present = set(stab["col"].to_pylist())
        missing = [s for s in str_cols if s not in present]
        if missing:
            stab = pa.concat_tables([
                stab.select(_SCHEMA.names),
                pa.table(
                    {
                        "col": pa.array(missing, pa.string()),
                        "n": pa.array([0] * len(missing), pa.int64()),
                        "n_null": pa.array([0] * len(missing), pa.int64()),
                        "n_distinct": pa.array([0] * len(missing), pa.int64()),
                        "vmin": pa.array([None] * len(missing), pa.int64()),
                        "vmax": pa.array([None] * len(missing), pa.int64()),
                    }
                ),
            ])
    else:
        stab = _SCHEMA.empty_table()

    ntab = pa.table(
        {
            "col": pa.array(list(rows), pa.string()),
            "n": pa.array([rows[k][0] for k in rows], pa.int64()),
            "n_null": pa.array([rows[k][1] for k in rows], pa.int64()),
            "n_distinct": pa.array([rows[k][2] for k in rows], pa.int64()),
            "vmin": pa.array([rows[k][3] for k in rows], pa.int64()),
            "vmax": pa.array([rows[k][4] for k in rows], pa.int64()),
        }
    )
    return ray.data.from_arrow(pa.concat_tables([ntab, stab.select(_SCHEMA.names)]))
