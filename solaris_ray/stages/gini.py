"""Per-group Gini inequality index in exact integer sufficient
statistics.

Data-curation relevance: inequality of contribution is a standard
corpus-health metric — Gini over per-source document counts, per-user
event volume, per-cell feature density (the geospatial skew the
reference's urban tiles exhibit; skewed cells are what the salting in
`stages/joins.py` exists for).  A high Gini on the partition key IS
the "do I need to salt?" signal, computed engine-side.

Gini = Σᵢ (2rᵢ - n - 1)·xᵢ / (n·Σx) over values sorted ascending
(rank r 1-based).  The numerator is invariant under permutations of
tied values (equal x contribute equally at any rank), so the statistic
is deterministic without a tiebreak.  Like the repo's other exact
gates, output is the integer (n, sum_v, gini_num) triple — the ratio
is the caller's one division — which keeps the DuckDB twin hash-exact.

Scale shape: one ``_buckets.co_shuffle`` on the group; per bucket a
single lexsort + segment reduceat —
no per-group Python dispatch.  Assumes each GROUP fits a task (the
documented partitioning assumption of every rank-family stage here);
groups are (nation, source, cell)-sized, not corpus-sized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_OUT = pa.schema(
    [
        ("grp", pa.int64()),
        ("n", pa.int64()),
        ("sum_v", pa.int64()),
        ("gini_num", pa.int64()),
    ]
)


def group_gini(ds, group_col: str, val_col: str):
    """Dataset with int64-able ``group_col``/``val_col`` ->
    (grp, n, sum_v, gini_num) per group, gini = gini_num / (n*sum_v)."""

    def _project(batch: pa.Table) -> pa.Table:
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "g": pa.array(key_i64(batch, group_col), pa.int64()),
                "v": pa.array(v, pa.int64()),
            }
        )

    def _gini(group: pa.Table) -> pa.Table:
        g = group["g"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        new = np.ones(g.size, bool)
        new[1:] = g[1:] != g[:-1]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        n_per = np.diff(np.append(starts, g.size))
        r1 = np.arange(g.size) - starts[seg] + 1  # 1-based rank in group
        w = 2 * r1 - n_per[seg] - 1
        num = np.add.reduceat(w * v, starts)
        sv = np.add.reduceat(v, starts)
        return pa.table(
            {
                "grp": pa.array(g[starts], pa.int64()),
                "n": pa.array(n_per, pa.int64()),
                "sum_v": pa.array(sv, pa.int64()),
                "gini_num": pa.array(num, pa.int64()),
            }
        )

    out = co_shuffle(ds.map_batches(_project, batch_format="pyarrow"), "g", _gini)

    def _pin(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _OUT.empty_table()
        return batch.select(_OUT.names)

    return out.map_batches(_pin, batch_format="pyarrow")
