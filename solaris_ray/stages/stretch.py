"""Corpus-global percentile contrast stretch (histogram normalization).

The remote-sensing preprocessing classic (cf. the reference's scale /
band-math ops, /root/reference/solaris/preproc/image.py): rescale
every image so the corpus-wide [q_lo, q_hi] pixel percentiles map to
[0, 255].  Unlike per-image stretch, the percentiles are GLOBAL — a
genuinely distributed statistic over every pixel of every image.

Scale plan: pass 1 decodes per batch (map tasks) and emits a 256-bin
integer histogram partial — O(256) rows per batch regardless of image
size, pre-combined in-batch, one tiny groupby to the global
histogram.  The discrete percentiles (DuckDB ``quantile_disc`` rank
semantics: index ``ceil(q*N) - 1`` of the ascending pixel multiset)
fall out of the cumulative histogram; the (lo, hi) pair broadcasts to
pass 2, which rescales with pure integer arithmetic
``min(255, max(v - lo, 0) * 255 // max(hi - lo, 1))`` — exact on both
engine and SQL sides, no float anywhere.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class _HistPartial:
    """Map stage: decode a batch, emit its 256-bin histogram."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        hist = np.zeros(256, np.int64)
        for buf, fmt, w, h in zip(
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_numpy(),
            batch["h"].to_numpy(),
        ):
            img = decode_any(buf, fmt, int(w), int(h), self.strict)
            hist += np.bincount(
                np.asarray(img, np.uint8).ravel(), minlength=256
            ).astype(np.int64)
        nz = np.flatnonzero(hist)
        return pa.table(
            {
                "bin": pa.array(nz.astype(np.int64), pa.int64()),
                "cnt": pa.array(hist[nz], pa.int64()),
            }
        )


class _Stretch:
    """Map stage: rescale with the broadcast (lo, hi) window."""

    def __init__(self, lo: int, hi: int, strict: bool = False):
        self.lo = int(lo)
        self.span = max(int(hi) - int(lo), 1)
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        ids, sums, mins, maxs = [], [], [], []
        for iid, buf, fmt, w, h in zip(
            batch["image_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_numpy(),
            batch["h"].to_numpy(),
        ):
            img = decode_any(buf, fmt, int(w), int(h), self.strict)
            v = np.asarray(img, np.int64)
            out = np.minimum(
                np.maximum(v - self.lo, 0) * 255 // self.span, 255
            )
            ids.append(iid)
            sums.append(int(out.sum()))
            mins.append(int(out.min()))
            maxs.append(int(out.max()))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "px_sum": pa.array(sums, pa.int64()),
                "px_min": pa.array(mins, pa.int64()),
                "px_max": pa.array(maxs, pa.int64()),
            }
        )


def global_percentiles(images, q_lo: float, q_hi: float,
                       strict: bool = False) -> tuple[int, int, int]:
    """-> (lo, hi, n_pixels): corpus-wide discrete pixel percentiles
    (quantile_disc rank semantics) from one histogram pass."""
    hist_rows = (
        images.map_batches(
            _HistPartial(strict), batch_format="pyarrow", batch_size=8,
        )
        .groupby("bin")
        .sum("cnt")
        .take_all()
    )  # <= 256 rows — the broadcast side
    hist = np.zeros(256, np.int64)
    for r in hist_rows:
        hist[int(r["bin"])] = int(r["sum(cnt)"])
    n = int(hist.sum())
    if n == 0:
        return 0, 255, 0
    cum = np.cumsum(hist)
    lo = int(np.searchsorted(cum, math.ceil(q_lo * n)))
    hi = int(np.searchsorted(cum, math.ceil(q_hi * n)))
    return lo, hi, n


def contrast_stretch(images, q_lo: float = 0.02, q_hi: float = 0.98,
                     strict: bool = False):
    """-> (image_id, px_sum, px_min, px_max, lo, hi) after the global
    [q_lo, q_hi] percentile stretch."""
    if not (0.0 <= q_lo < q_hi <= 1.0):
        raise ValueError("need 0 <= q_lo < q_hi <= 1")
    lo, hi, _ = global_percentiles(images, q_lo, q_hi, strict)
    out = images.map_batches(
        _Stretch(lo, hi, strict), batch_format="pyarrow", batch_size=8,
    )
    return out.map_batches(
        lambda b: b.append_column(
            "lo", pa.array(np.full(b.num_rows, lo, np.int64), pa.int64())
        ).append_column(
            "hi", pa.array(np.full(b.num_rows, hi, np.int64), pa.int64())
        ),
        batch_format="pyarrow",
    )


class _Equalize:
    """Map stage: PER-IMAGE histogram equalization.

    Classic CDF remap with the standard cdf-min convention,
    integer-exact:  out(v) = (cdf(v) - cdf_min) * 255 // (N - cdf_min)
    where cdf_min is the smallest nonzero cdf value (so the darkest
    present level maps to 0 and the brightest to 255); a constant
    image maps to all-zeros via the max(1, ...) guard."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        ids, sums, mins, maxs = [], [], [], []
        for iid, buf, fmt, w, h in zip(
            batch["image_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_numpy(),
            batch["h"].to_numpy(),
        ):
            img = decode_any(buf, fmt, int(w), int(h), self.strict)
            flat = np.asarray(img, np.uint8).ravel()
            hist = np.bincount(flat, minlength=256).astype(np.int64)
            cdf = np.cumsum(hist)
            n = int(cdf[-1])
            nz = np.flatnonzero(hist)
            cdf_min = int(cdf[nz[0]]) if nz.size else 0
            lut = (
                np.maximum(cdf - cdf_min, 0) * 255
                // max(n - cdf_min, 1)
            ).astype(np.int64)
            out = lut[flat]
            ids.append(iid)
            sums.append(int(out.sum()))
            mins.append(int(out.min()) if out.size else 0)
            maxs.append(int(out.max()) if out.size else 0)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "eq_sum": pa.array(sums, pa.int64()),
                "eq_min": pa.array(mins, pa.int64()),
                "eq_max": pa.array(maxs, pa.int64()),
            }
        )


def hist_equalize(images, strict: bool = False):
    """-> (image_id, eq_sum, eq_min, eq_max) after per-image histogram
    equalization — decode once per image, O(256) state per image."""
    return images.map_batches(
        _Equalize(strict), batch_format="pyarrow", batch_size=8,
    )
