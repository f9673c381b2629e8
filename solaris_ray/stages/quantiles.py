"""Quantiles: exact distributed selection + t-digest sketch aggregate.

The reference ships a *stub* t-digest (empty
/root/reference/solaris/utils/tdigest.py, partial driver in
solaris/raster/image.py:213-306 ``get_intensity_quantiles`` — "Not yet
implemented") used for intensity normalization.  Here both paths are
real:

- ``exact_quantiles``: 3-pass exact selection — (1) count + min/max
  aggregate, (2) fixed-width histogram via per-batch partial counts
  (one small groupby), (3) sort only the single bucket containing each
  target rank.  Work on the full data is map-only; the sort touches
  1/n_buckets of the rows.  Rank semantics: element at 0-based rank
  ``floor(q * (n-1))`` in ascending order.
- ``TDigest``: mergeable centroid sketch (Dunning-style size bound
  sqrt scale), usable as a Ray ``AggregateFn`` — the streaming/one-pass
  scale path when 3 passes are too expensive.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle


def exact_quantiles(ds, col: str, qs: list[float], n_buckets: int = 1024) -> pa.Table:
    """Exact quantiles of a numeric column, distributed.

    Returns (q, value) rows; deterministic for any block layout.
    """
    from ray.data.aggregate import Count, Max, Min

    agg = ds.aggregate(Count(), Min(col), Max(col))
    n, lo, hi = agg["count()"], float(agg[f"min({col})"]), float(agg[f"max({col})"])
    if n == 0:
        return pa.table({"q": pa.array(qs, pa.float64()), "value": pa.nulls(len(qs), pa.float64())})
    ranks = [int(np.floor(q * (n - 1))) for q in qs]
    values = exact_rank_select(ds, col, ranks, n_buckets=n_buckets)
    return pa.table({"q": pa.array(qs, pa.float64()), "value": pa.array(values, pa.float64())})


def exact_rank_select(
    ds, col: str, ranks: list[int], n_buckets: int = 1024
) -> list[float]:
    """Exact values at the given ascending 0-based ranks — the
    integer-rank core of ``exact_quantiles`` (3 passes: count+extent,
    histogram partials, single-bucket refinement).  Integer ranks avoid
    the float ``floor(q*(n-1))`` rounding trap when a caller's rank
    formula is integer arithmetic (zorder boundaries)."""
    from ray.data.aggregate import Count, Max, Min

    agg = ds.aggregate(Count(), Min(col), Max(col))
    n, lo, hi = agg["count()"], float(agg[f"min({col})"]), float(agg[f"max({col})"])
    if n == 0:
        raise ValueError("exact_rank_select: empty dataset")
    if any(r < 0 or r >= n for r in ranks):
        raise ValueError(f"exact_rank_select: rank outside [0, {n})")
    width = (hi - lo) / n_buckets or 1.0

    def _hist(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy().astype(np.float64)
        b = np.clip(((v - lo) / width).astype(np.int64), 0, n_buckets - 1)
        uniq, cnt = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(uniq), "n": pa.array(cnt)})

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(_hist, batch_format="pyarrow", batch_size=65536)
        .groupby("bucket")
        .aggregate(Sum("n"))
        .to_pandas()
        .sort_values("bucket")
    )
    buckets = hist["bucket"].to_numpy()
    counts = hist["sum(n)"].to_numpy()
    cum = np.cumsum(counts)
    starts = cum - counts

    # ONE refinement pass collects every needed bucket (a prior version
    # re-scanned the dataset once per quantile)
    need = {}
    for r in ranks:
        bi = int(np.searchsorted(cum, r + 1))
        need.setdefault(int(buckets[bi]), []).append((r, int(starts[bi])))
    need_arr = np.asarray(sorted(need), dtype=np.int64)

    def _filt(batch: pa.Table) -> pa.Table:
        v = batch[col].to_numpy().astype(np.float64)
        b = np.clip(((v - lo) / width).astype(np.int64), 0, n_buckets - 1)
        m = np.isin(b, need_arr)
        return pa.table({col: pa.array(v[m]), "bucket": pa.array(b[m])})

    import ray

    parts = [
        t
        for t in ray.get(
            ds.map_batches(_filt, batch_format="pyarrow", batch_size=65536).to_arrow_refs()
        )
        if t.num_rows
    ]
    allv = np.concatenate([t[col].to_numpy() for t in parts]) if parts else np.empty(0)
    allb = np.concatenate([t["bucket"].to_numpy() for t in parts]) if parts else np.empty(0, np.int64)
    by_rank = {}
    for b, rank_list in need.items():
        vals = np.sort(allv[allb == b], kind="stable")
        for r, start in rank_list:
            by_rank[r] = float(vals[r - start])
    return [by_rank[r] for r in ranks]


class TDigest:
    """Mergeable quantile sketch: centroids bounded by a sqrt scale.

    Not bit-compatible with any reference output (the reference's is a
    stub); accuracy is tested against numpy percentiles in pytest.
    (No ``__slots__``: Ray's aggregate machinery pickles accumulator
    state via ``__dict__``.)
    """

    def __init__(self, delta: int = 100):
        self.delta = delta
        self.means = np.empty(0, dtype=np.float64)
        self.weights = np.empty(0, dtype=np.float64)
        self._buf: list[np.ndarray] = []

    def add(self, values: np.ndarray) -> None:
        self._buf.append(np.asarray(values, dtype=np.float64))
        if sum(len(b) for b in self._buf) > 8 * self.delta:
            self.compress()

    def merge(self, other: "TDigest") -> "TDigest":
        out = TDigest(self.delta)
        self.compress()
        other.compress()
        out._buf = []
        allm = np.concatenate([self.means, other.means])
        allw = np.concatenate([self.weights, other.weights])
        out.means, out.weights = allm, allw
        out.compress()
        return out

    def compress(self) -> None:
        if self._buf:
            vals = np.concatenate(self._buf)
            self._buf = []
            self.means = np.concatenate([self.means, vals])
            self.weights = np.concatenate([self.weights, np.ones(len(vals))])
        if len(self.means) == 0:
            return
        order = np.argsort(self.means, kind="stable")
        m, w = self.means[order], self.weights[order]
        total = w.sum()
        # sqrt scale: centroid capacity ~ 4*total*q(1-q)/delta
        out_m, out_w = [], []
        cur_m, cur_w, cum = m[0], w[0], 0.0
        for i in range(1, len(m)):
            q = (cum + cur_w / 2) / total
            cap = max(1.0, 4.0 * total * q * (1 - q) / self.delta)
            if cur_w + w[i] <= cap:
                cur_m = (cur_m * cur_w + m[i] * w[i]) / (cur_w + w[i])
                cur_w += w[i]
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                cum += cur_w
                cur_m, cur_w = m[i], w[i]
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.asarray(out_m)
        self.weights = np.asarray(out_w)

    def quantile(self, q: float) -> float:
        self.compress()
        if len(self.means) == 0:
            return float("nan")
        cum = np.cumsum(self.weights) - self.weights / 2
        target = q * self.weights.sum()
        return float(np.interp(target, cum, self.means))


def tdigest_aggfn(col: str, delta: int = 200):
    """The t-digest as a genuine Ray ``AggregateFn``: per-block
    accumulate + tree merge run inside the engine's aggregation
    machinery (SURVEY.md §2.3 "custom AggregateFn (merge-able digest)
    — partial+final"); only the finalized sketch reaches the driver.
    Composes with ``groupby(...).aggregate(...)`` like any built-in."""
    from ray.data.aggregate import AggregateFn

    def _accumulate(d: TDigest, block) -> TDigest:
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pydict(block)
        d.add(tbl[col].to_numpy(zero_copy_only=False).astype(np.float64))
        d.compress()
        return d

    def _merge(a: TDigest, b: TDigest) -> TDigest:
        return a.merge(b)

    return AggregateFn(
        init=lambda k: TDigest(delta),
        accumulate_block=_accumulate,
        merge=_merge,
        finalize=lambda d: d,
        name=f"tdigest({col})",
    )


def tdigest_aggregate(ds, col: str, qs: list[float], delta: int = 200) -> pa.Table:
    """One-pass sketch quantiles through ``Dataset.aggregate`` with the
    t-digest AggregateFn — partial digests per block, tree-merged by the
    engine; the driver only evaluates quantiles on the final sketch."""
    agg = ds.aggregate(tdigest_aggfn(col, delta))
    final: TDigest = agg[f"tdigest({col})"]
    return pa.table(
        {
            "q": pa.array(qs, pa.float64()),
            "value": pa.array([final.quantile(q) for q in qs], pa.float64()),
        }
    )


def group_quantiles(ds, group_col: str, value_col: str, qs: list[float]):
    """Per-group exact discrete quantiles (DuckDB ``quantile_disc``
    rank semantics: 0-based index ``ceil(q*n) - 1`` of the ascending
    group values — always an element of the group).

    One ``co_shuffle`` on the group of (group, value) rows; inside a
    bucket every group's order statistics are gathered from ONE lexsort
    (segment starts + per-q offsets) — vectorized across all groups and
    quantiles at once.  A null group is refused with ``co_shuffle``'s
    named ``ValueError``.

    Scale contract: a single group's rows must fit one worker (the
    usual ``map_groups`` contract; per-source/per-language profiling
    keys are low-cardinality).  For groups that don't fit, run
    ``exact_quantiles`` per key (3-pass selection) or the t-digest
    aggregate instead.

    Output: one row per (group, q): (group_col, q, value).
    """
    import math

    # int64 rank semantics only: a float column would be silently
    # truncated by the int64 cast below — fail loudly instead (use
    # exact_quantiles / tdigest for float values)
    sch = ds.schema()
    vt = dict(zip(sch.names, sch.types)).get(value_col)
    if vt is not None and not pa.types.is_integer(vt):
        raise TypeError(
            f"group_quantiles: value column {value_col!r} must be "
            f"integer-typed (got {vt}); use exact_quantiles or the "
            "t-digest aggregate for float values"
        )

    out_schema = pa.schema(
        [(group_col, pa.string()), ("q", pa.float64()), ("value", pa.int64())]
    )

    def _stats(group: pa.Table) -> pa.Table:
        g = group[group_col].to_numpy(zero_copy_only=False)
        v = group[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if g.size == 0:
            return out_schema.empty_table()
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        new = np.r_[True, g[1:] != g[:-1]]
        starts = np.flatnonzero(new)
        lens = np.diff(np.r_[starts, g.size])
        out_g, out_q, out_v = [], [], []
        for q in qs:
            # ceil in float, matching duckdb's double arithmetic
            idx = np.array(
                [math.ceil(q * int(n)) - 1 for n in lens], np.int64
            )
            out_g.append(g[starts])
            out_q.append(np.full(starts.size, q, np.float64))
            out_v.append(v[starts + idx])
        return pa.table(
            {
                group_col: pa.array(np.concatenate(out_g), pa.string()),
                "q": pa.array(np.concatenate(out_q), pa.float64()),
                "value": pa.array(np.concatenate(out_v), pa.int64()),
            }
        )

    return co_shuffle(ds.select_columns([group_col, value_col]), group_col, _stats)


def grouped_mad(ds, group_col: str, value_col: str, k: int = 5):
    """Per-group robust outlier screen: median, MAD (both
    ``quantile_disc`` rank semantics — exact integers), and the count
    of rows with ``|v − med| > k·MAD``.  One ``co_shuffle`` on the
    group; both order statistics come from two lexsorts inside the
    kernel, vectorized across every group in the bucket (the
    ``group_quantiles`` contract: one group fits one worker, and a
    null group is refused).

    -> (grp, n, med, mad, n_out) per group.
    """
    sch = ds.schema()
    vt = dict(zip(sch.names, sch.types)).get(value_col)
    if vt is not None and not pa.types.is_integer(vt):
        raise TypeError(
            f"grouped_mad: value column {value_col!r} must be integer-typed"
        )

    out_schema = pa.schema([
        ("grp", pa.string()), ("n", pa.int64()), ("med", pa.int64()),
        ("mad", pa.int64()), ("n_out", pa.int64()),
    ])

    def _kernel(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        g = pc.cast(group[group_col], pa.string()).to_numpy(zero_copy_only=False)
        g = g.astype(object)
        v = group[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, seg = np.unique(g, return_inverse=True)
        order = np.lexsort((v, seg))
        sv, ss = v[order], seg[order]
        starts = np.flatnonzero(np.concatenate(([True], ss[1:] != ss[:-1])))
        counts = np.diff(np.concatenate((starts, [ss.size])))
        # quantile_disc(0.5): 0-based index ceil(n/2) - 1
        med = sv[starts + (counts + 1) // 2 - 1]
        ad = np.abs(v - med[seg])
        order2 = np.lexsort((ad, seg))
        sad = ad[order2]
        mad = sad[starts + (counts + 1) // 2 - 1]
        n_out = np.zeros(uniq.size, np.int64)
        np.add.at(n_out, seg, (ad > k * mad[seg]).astype(np.int64))
        return pa.table({
            "grp": pa.array(uniq.tolist(), pa.string()),
            "n": pa.array(counts.astype(np.int64), pa.int64()),
            "med": pa.array(med, pa.int64()),
            "mad": pa.array(mad, pa.int64()),
            "n_out": pa.array(n_out, pa.int64()),
        })

    return co_shuffle(ds.select_columns([group_col, value_col]), group_col, _kernel)
