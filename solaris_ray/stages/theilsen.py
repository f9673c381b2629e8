"""Per-key Theil-Sen robust trend slope — integer micro-slopes.

The robust twin of `stages/trend.py` (OLS): the Theil-Sen estimator is
the median of all pairwise slopes, immune to ~29% outlier
contamination — billing spikes, sensor glitches — where OLS bends.

Exactness contract: each ordered pair (t_i < t_j) contributes the
TRUNCATED-toward-zero micro-slope

    ms = sign(dy) * (|dy| * 10^6 // dt)

(an int64; dt > 0; dt == 0 pairs are skipped — duplicate-timestamp
pairs have no slope), and the estimate is the LOWER MEDIAN (ascending
rank floor((n-1)/2)) of those integers.  Median-of-truncations rather
than truncation-of-median keeps every compared quantity an integer,
so the SQL twin (CASE-sign arithmetic + row_number) is hash-exact.

Shape: ONE ``_buckets.co_shuffle`` on the key; the per-bucket kernel
generates each key segment's pair triangle VECTORIZED (the editdist
closed-form triangle enumeration) and reduces with a lexsort-segment
median — no per-pair Python.  Pair count is O(n_k^2) per key — the
estimator's intrinsic cost; callers bound n_k (the documented
rank-family partitioning assumption, plus a per-key cap here that
raises rather than silently truncating, because dropping pairs
CHANGES a median).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle, key_i64

_OUT = pa.schema(
    [
        ("key", pa.int64()),
        ("n_pairs", pa.int64()),
        ("slope_u", pa.int64()),
    ]
)


def theil_sen(
    ds,
    key_col: str,
    t_col: str,
    v_col: str,
    max_key_rows: int = 20_000,
):
    """Dataset of (key, t, v) integer rows -> (key, n_pairs, slope_u):
    lower-median pairwise micro-slope per key (NULL when no pair has
    distinct t)."""

    def _project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": pa.array(key_i64(batch, key_col), pa.int64()),
                "t": pa.array(
                    batch[t_col].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
                "v": pa.array(
                    batch[v_col].to_numpy(zero_copy_only=False).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    def _slopes(group: pa.Table) -> pa.Table:
        k = group["k"].to_numpy(zero_copy_only=False)
        t = group["t"].to_numpy(zero_copy_only=False)
        v = group["v"].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, t, k))
        k, t, v = k[order], t[order], v[order]
        new = np.ones(k.size, bool)
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, k.size))
        if counts.size and int(counts.max()) > max_key_rows:
            raise ValueError(
                f"theil_sen: a key has {int(counts.max())} rows "
                f"(> max_key_rows={max_key_rows}); O(n^2) pairs would "
                "silently change the median if truncated — pre-sample"
            )
        # closed-form triangle enumeration over every key segment
        m = counts * (counts - 1) // 2
        tot = int(m.sum())
        out_k, out_np, out_s, out_ok = [], [], [], []
        if tot:
            segp = np.repeat(np.arange(counts.size), m)
            r = np.arange(tot, dtype=np.int64) - np.repeat(
                np.cumsum(m) - m, m
            )
            c = counts[segp]

            def _S(i):
                return i * (c - 1) - i * (i - 1) // 2

            tri_i = np.floor(
                (2 * c - 1 - np.sqrt((2 * c - 1.0) ** 2 - 8.0 * r)) / 2
            ).astype(np.int64)
            tri_i = np.clip(tri_i, 0, c - 2)
            tri_i -= (_S(tri_i) > r).astype(np.int64)
            tri_i += (_S(tri_i + 1) <= r).astype(np.int64)
            tri_j = r - _S(tri_i) + tri_i + 1
            base = starts[segp]
            ia, ib = base + tri_i, base + tri_j
            dt = t[ib] - t[ia]
            dy = v[ib] - v[ia]
            ok = dt > 0  # rows sorted by (k, t): dt >= 0; drop ties
            segp, dt, dy = segp[ok], dt[ok], dy[ok]
            ms = np.sign(dy) * (np.abs(dy) * np.int64(1_000_000) // dt)
            # lower median per segment: lexsort then rank-gather
            o2 = np.lexsort((ms, segp))
            segp, ms = segp[o2], ms[o2]
            pnew = np.ones(segp.size, bool)
            pnew[1:] = segp[1:] != segp[:-1]
            pstarts = np.flatnonzero(pnew)
            pn = np.diff(np.append(pstarts, segp.size))
            med = ms[pstarts + (pn - 1) // 2]
            seg_ids = segp[pstarts]
            out_k = k[starts][seg_ids]
            out_np = pn.astype(np.int64)
            out_s = med.astype(np.int64)
        # keys with zero valid pairs still emit (n_pairs=0, NULL slope)
        have = set(np.asarray(out_k).tolist()) if len(out_k) else set()
        missing = [kk for kk in k[starts].tolist() if kk not in have]
        all_k = np.concatenate(
            [np.asarray(out_k, np.int64), np.asarray(missing, np.int64)]
        )
        all_np = np.concatenate(
            [np.asarray(out_np, np.int64), np.zeros(len(missing), np.int64)]
        )
        all_s = np.concatenate(
            [np.asarray(out_s, np.int64), np.zeros(len(missing), np.int64)]
        )
        valid = np.concatenate(
            [np.ones(len(out_k), bool), np.zeros(len(missing), bool)]
        ) if len(all_k) else np.zeros(0, bool)
        if all_k.size == 0:
            return _OUT.empty_table()
        return pa.table(
            {
                "key": pa.array(all_k, pa.int64()),
                "n_pairs": pa.array(all_np, pa.int64()),
                "slope_u": pa.array(all_s, pa.int64(), mask=~valid),
            }
        )

    return co_shuffle(ds.map_batches(_project, batch_format="pyarrow"), "k", _slopes)
