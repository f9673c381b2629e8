"""Per-image Shannon entropy (texture/information screening).

Curation filter for imagery corpora: near-constant tiles (clouds,
nodata fill, ocean) carry low entropy and waste training tokens;
``H = -sum_b p_b ln p_b`` over the 256-bin pixel histogram separates
them from textured scenes.  Complements ImageQuality's blur metrics
(stages/multimodal.py) with a histogram-shape measure.

Map-task decode (state-free, batch-amortized), O(256) kernel per
image, no shuffle at all — a pure map stage.  Float discipline:
identical division/ln expression on engine and SQL sides, 6-dp round
(the per-image sum is 256 terms, error ~1e-13).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


class ImageEntropy:
    """Map stage: (image rows) -> (image_id, n_px, h6)."""

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        ids, npx, hs = [], [], []
        for iid, buf, fmt, w, h in zip(
            batch["image_id"].to_pylist(),
            batch["bytes"].to_pylist(),
            batch["fmt"].to_pylist(),
            batch["w"].to_numpy(),
            batch["h"].to_numpy(),
        ):
            img = decode_any(buf, fmt, int(w), int(h), self.strict)
            hist = np.bincount(
                np.asarray(img, np.uint8).ravel(), minlength=256
            ).astype(np.float64)
            n = float(hist.sum())
            p = hist[hist > 0] / n
            ent = float(-(p * np.log(p)).sum())
            ids.append(iid)
            npx.append(int(n))
            hs.append(round(ent, 6))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_px": pa.array(npx, pa.int64()),
                "h6": pa.array(hs, pa.float64()),
            }
        )


def image_entropy(images, strict: bool = False):
    """-> (image_id, n_px, h6) per image."""
    return images.map_batches(
        ImageEntropy(strict), batch_format="pyarrow", batch_size=8,
    )
