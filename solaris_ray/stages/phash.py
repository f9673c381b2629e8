"""Perceptual image hashing — compute the input-hint ``phash`` column.

The corpus schema (BASELINE.json input_hint) carries ``phash:int64``;
when a corpus arrives WITHOUT it, the engine must derive it from
pixels.  This is the standard DCT pHash (the algorithm behind
pHash.org / imagehash.phash):

  grayscale -> 32x32 area-mean resize -> 2D DCT-II -> top-left 8x8
  block -> bit b = coeff > median(AC coeffs) -> 64-bit integer.

Invariances that make it a *perceptual* hash (and that the gate
plants): constant brightness shifts change only the DC coefficient
(hash exactly unchanged); uniform contrast scaling multiplies every
coefficient (sign pattern vs the median unchanged); JPEG recompression
perturbs high frequencies the 8x8 low-band never sees much of.

``PhashImages`` composes with ``components.image_dedup`` — decode
bytes, hash, then the same banded-Hamming -> CC -> representative
resolve as a precomputed-phash corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n, dtype=np.float64)
    mat = np.cos(np.pi * (2 * k[None, :] + 1) * k[:, None] / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


_D32 = _dct_matrix(32)


def _area_resize(gray: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """[h, w] -> [ny, nx] by area mean (integral-image box sums).

    Images narrower than the target on either axis are first upscaled
    by integer pixel repetition — rounded linspace edges would
    otherwise collide into zero-area cells and silently break the
    hashes' brightness-shift invariance on small images.
    """
    h, w = gray.shape
    if h < ny or w < nx:
        fy = -(-ny // h) if h < ny else 1
        fx = -(-nx // w) if w < nx else 1
        gray = np.repeat(np.repeat(gray, fy, axis=0), fx, axis=1)
        h, w = gray.shape
    # integral image with a zero row/col prefix
    ii = np.zeros((h + 1, w + 1), np.float64)
    np.cumsum(np.cumsum(gray, axis=0), axis=1, out=ii[1:, 1:])
    ys = np.linspace(0, h, ny + 1).round().astype(np.int64)
    xs = np.linspace(0, w, nx + 1).round().astype(np.int64)
    A = ii[np.ix_(ys[1:], xs[1:])]
    B = ii[np.ix_(ys[:-1], xs[1:])]
    C = ii[np.ix_(ys[1:], xs[:-1])]
    E = ii[np.ix_(ys[:-1], xs[:-1])]
    area = ((ys[1:] - ys[:-1])[:, None] * (xs[1:] - xs[:-1])[None, :])
    area = np.maximum(area, 1)
    return (A - B - C + E) / area


def _area_resize_32(gray: np.ndarray) -> np.ndarray:
    return _area_resize(gray, 32, 32)


def compute_phash(px: np.ndarray) -> int:
    """[h, w] or [h, w, ch] uint8 pixels -> 64-bit perceptual hash."""
    p = np.asarray(px, np.float64)
    if p.ndim == 3:
        if p.shape[2] >= 3:  # ITU-R 601 luma
            p = 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
        else:
            p = p[:, :, 0]
    small = _area_resize_32(p)
    coeffs = _D32 @ small @ _D32.T
    block = coeffs[:8, :8].ravel()
    med = np.median(block[1:])  # AC median (DC excluded)
    bits = (block > med).astype(np.uint64)
    return int((bits << np.arange(64, dtype=np.uint64)).sum().astype(np.int64))


class PhashImages:
    """Map stage: (image_id, bytes, fmt) -> (image_id, phash).

    Decodes through the raster codec registry (png/jpeg/webp/tiff/qnt
    are real), then DCT pHash.  Rows whose format can't decode here
    are dropped with the standard strict/fake seam left to
    ``stages/multimodal.py`` consumers.
    """

    def __init__(self, fmt_col: str = "fmt", algo: str = "phash"):
        self.fmt_col = fmt_col
        if algo not in ("phash", "ahash", "dhash"):
            raise ValueError(f"unknown hash algo {algo!r}")
        self.algo = algo

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..raster.codec import decode

        fn = {"phash": compute_phash, "ahash": compute_ahash,
              "dhash": compute_dhash}[self.algo]
        keep_idx, hashes = [], []
        fmts = (batch[self.fmt_col].to_pylist()
                if self.fmt_col in batch.schema.names
                else ["png"] * batch.num_rows)
        for i in range(batch.num_rows):
            try:
                px = decode(batch["bytes"][i].as_py(), fmts[i])
            except ValueError:
                continue  # undecodable format: drop the row, keep the batch
            keep_idx.append(i)
            hashes.append(fn(px))
        return pa.table(
            {
                "image_id": batch["image_id"].take(
                    pa.array(keep_idx, pa.int64())),
                "phash": pa.array(hashes, pa.int64()),
            }
        )


def _to_gray(px: np.ndarray) -> np.ndarray:
    p = np.asarray(px, np.float64)
    if p.ndim == 3:
        if p.shape[2] >= 3:
            return 0.299 * p[:, :, 0] + 0.587 * p[:, :, 1] + 0.114 * p[:, :, 2]
        return p[:, :, 0]
    return p


def compute_ahash(px: np.ndarray) -> int:
    """Average hash: 8x8 area-mean luma, bit = cell > mean."""
    small = _area_resize(_to_gray(px), 8, 8).ravel()
    bits = (small > small.mean()).astype(np.uint64)
    return int((bits << np.arange(64, dtype=np.uint64)).sum().astype(np.int64))


def compute_dhash(px: np.ndarray) -> int:
    """Difference hash: 8x9 area-mean luma, bit = left < right
    neighbor (horizontal gradient signs — robust to global gain AND
    bias by construction)."""
    small = _area_resize(_to_gray(px), 8, 9)
    bits = (small[:, :-1] < small[:, 1:]).ravel().astype(np.uint64)
    return int((bits << np.arange(64, dtype=np.uint64)).sum().astype(np.int64))
