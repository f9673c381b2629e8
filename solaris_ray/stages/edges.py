"""Edge and threshold image kernels — Sobel gradient stats, Otsu.

Curation screens for imagery corpora alongside ImageEntropy /
ImageQuality (cf. the reference's preprocessing ops,
/root/reference/solaris/preproc/image.py): Sobel gradient mass
separates textured scenes from flat fill, and Otsu's method gives the
canonical binarization threshold that feeds mask/footprint heuristics.

Both are pure map stages over a per-task decode — no shuffle.
Float discipline: none needed; every statistic is exact integer
arithmetic (Otsu's between-class variance is compared as a
micro-unit-scaled integer fraction so engine and SQL rank thresholds
identically, ties broken toward the smaller threshold on both sides).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_SOBEL_EDGE_THRESH = 128


class SobelStats:
    """Map stage: (image rows) -> per-image gradient stats.

    ``g = |gx| + |gy|`` over interior pixels (valid 3x3 window);
    emits the exact integer gradient mass, max, and the count of
    pixels at or above the edge threshold.
    """

    def __init__(self, thresh: int = _SOBEL_EDGE_THRESH, strict: bool = False):
        self.thresh = int(thresh)
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        ids, gsum, gmax, edge = [], [], [], []
        for iid, buf, fmt, w, h in zip(
            batch["image_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_numpy(),
            batch["h"].to_numpy(),
        ):
            v = np.asarray(
                decode_any(buf, fmt, int(w), int(h), self.strict), np.int64
            )
            if v.ndim == 3:
                v = v[..., 0]
            gx = (v[:-2, 2:] + 2 * v[1:-1, 2:] + v[2:, 2:]) - (
                v[:-2, :-2] + 2 * v[1:-1, :-2] + v[2:, :-2]
            )
            gy = (v[2:, :-2] + 2 * v[2:, 1:-1] + v[2:, 2:]) - (
                v[:-2, :-2] + 2 * v[:-2, 1:-1] + v[:-2, 2:]
            )
            g = np.abs(gx) + np.abs(gy)
            ids.append(iid)
            gsum.append(int(g.sum()))
            gmax.append(int(g.max()) if g.size else 0)
            edge.append(int((g >= self.thresh).sum()))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "g_sum": pa.array(gsum, pa.int64()),
                "g_max": pa.array(gmax, pa.int64()),
                "edge_px": pa.array(edge, pa.int64()),
            }
        )


class OtsuThreshold:
    """Map stage: per-image Otsu threshold, exact.

    Maximizes the between-class variance over the 256-bin histogram.
    With N pixels, total sum S, and class-0 cumulatives (n0, s0) at
    threshold t (class 0 = values <= t), the variance ranks as
    ``num^2 / den`` with ``num = s0*N - S*n0`` and
    ``den = n0*(N - n0)``.  num^2 exceeds int64, so the score is the
    arbitrary-precision integer ``num^2 * 10^6 // den`` — the same
    discretization a HUGEINT SQL twin computes, making the argmax
    (smallest t on ties) bit-reproducible.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        ids, ts, n0s, s0s = [], [], [], []
        for iid, buf, fmt, w, h in zip(
            batch["image_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_numpy(),
            batch["h"].to_numpy(),
        ):
            img = np.asarray(
                decode_any(buf, fmt, int(w), int(h), self.strict), np.uint8
            )
            hist = np.bincount(img.ravel(), minlength=256).astype(np.int64)
            n0 = np.cumsum(hist)
            s0 = np.cumsum(hist * np.arange(256, dtype=np.int64))
            n_total = int(n0[-1])
            s_total = int(s0[-1])
            best_t, best_score = -1, -1
            for t in range(255):  # O(256) per image, pixel-count-free
                n = int(n0[t])
                if n == 0 or n == n_total:
                    continue
                num = int(s0[t]) * n_total - s_total * n
                score = num * num * 1_000_000 // (n * (n_total - n))
                if score > best_score:
                    best_score, best_t = score, t
            ids.append(iid)
            ts.append(best_t)
            n0s.append(int(n0[best_t]) if best_t >= 0 else 0)
            s0s.append(int(s0[best_t]) if best_t >= 0 else 0)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "otsu_t": pa.array(ts, pa.int64()),
                "n_below": pa.array(n0s, pa.int64()),
                "sum_below": pa.array(s0s, pa.int64()),
            }
        )


class GlcmStats:
    """Map stage: gray-level co-occurrence texture features.

    Horizontal offset-(1,0) co-occurrence (the classic Haralick
    setup): per image, over all horizontal neighbor pairs, emits the
    exact integer contrast ``Σ (v_l − v_r)²``, the energy
    ``Σ_{(a,b)} n_ab²`` of the co-occurrence histogram, and the pair
    count — the texture screen that separates speckle from structure
    in SAR/EO corpora.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        ids, con, en, npair = [], [], [], []
        for iid, buf, fmt, w, h in zip(
            batch["image_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_numpy(),
            batch["h"].to_numpy(),
        ):
            v = np.asarray(
                decode_any(buf, fmt, int(w), int(h), self.strict), np.int64
            )
            if v.ndim == 3:
                v = v[..., 0]
            left, right = v[:, :-1], v[:, 1:]
            d = left - right
            pair_codes = left * 256 + right
            counts = np.bincount(pair_codes.ravel())
            ids.append(iid)
            con.append(int((d * d).sum()))
            en.append(int((counts.astype(np.int64) ** 2).sum()))
            npair.append(int(d.size))
        return pa.table({
            "image_id": pa.array(ids, pa.string()),
            "contrast": pa.array(con, pa.int64()),
            "energy": pa.array(en, pa.int64()),
            "n_pairs": pa.array(npair, pa.int64()),
        })


def glcm_stats(images, strict: bool = False):
    """-> (image_id, contrast, energy, n_pairs) per image."""
    return images.map_batches(
        GlcmStats(strict), batch_format="pyarrow", batch_size=8,
    )


def sobel_stats(images, thresh: int = _SOBEL_EDGE_THRESH, strict: bool = False):
    """-> (image_id, g_sum, g_max, edge_px) per image."""
    return images.map_batches(
        SobelStats(thresh, strict), batch_format="pyarrow", batch_size=8,
    )


def otsu_threshold(images, strict: bool = False):
    """-> (image_id, otsu_t, n_below, sum_below) per image."""
    return images.map_batches(
        OtsuThreshold(strict), batch_format="pyarrow", batch_size=8,
    )
