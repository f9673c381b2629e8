"""Preproc pixel ops — solaris.utils.io / preproc.image / preproc.sar
/ preproc.optical scalar kernels as stateless map_batches bodies.

All kernels take decoded [H,W,C] arrays; ``apply_image_op`` wraps any
of them into a decode -> op -> encode batch stage so they compose like
the reference's PipeSegment ``*`` chains
(/root/reference/solaris/preproc/pipesegment.py:6-346) — here
composition is just a list of ops applied per batch.

Covered (SURVEY.md §2.2):
- scale_for_model / rescale (utils/io.py:154-305): minmax, zscore,
  8-bit rescale.
- SelectBands / SwapChannels / DropChannel (preproc/image.py:334-501,
  nets/transform.py:77-148).
- RGB<->HSV (preproc/optical.py:9-92) — vectorized, not per-pixel
  colorsys.
- SAR scalar ops (preproc/sar.py:17-127): amplitude, intensity,
  phase, decibels over complex data carried as (re, im) channel pairs.
- Multilook (preproc/sar.py:130-155): uniform box filter.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..raster import codec


# --- pixel kernels ([H,W,C] -> [H,W,C']) ---------------------------------

def minmax_scale(img: np.ndarray) -> np.ndarray:
    f = img.astype(np.float64)
    lo, hi = f.min(), f.max()
    return (f - lo) / (hi - lo) if hi > lo else np.zeros_like(f)


def zscore_scale(img: np.ndarray) -> np.ndarray:
    f = img.astype(np.float64)
    sd = f.std()
    return (f - f.mean()) / sd if sd > 0 else np.zeros_like(f)


def select_bands(img: np.ndarray, bands: list[int]) -> np.ndarray:
    return img[:, :, bands]


def swap_channels(img: np.ndarray, a: int, b: int) -> np.ndarray:
    out = img.copy()
    out[:, :, [a, b]] = out[:, :, [b, a]]
    return out


def drop_channel(img: np.ndarray, idx: int) -> np.ndarray:
    keep = [i for i in range(img.shape[2]) if i != idx]
    return img[:, :, keep]


def crop(img: np.ndarray, x0: int, y0: int, w: int, h: int) -> np.ndarray:
    """Pixel-window crop (Crop, preproc/image.py:380-414; the geo
    variant resolves the window through the affine first)."""
    return img[y0 : y0 + h, x0 : x0 + w]


def scale_mult(img: np.ndarray, factor: float) -> np.ndarray:
    """Multiply pixel values (Scale, preproc/image.py:360-377)."""
    return img.astype(np.float64) * factor


def get_mask(img: np.ndarray) -> np.ndarray:
    """Validity mask: 1 where finite, 0 where NaN (GetMask,
    preproc/image.py:430-445)."""
    return np.isfinite(img.astype(np.float64)).all(axis=2).astype(np.uint8)[:, :, None]


def set_mask(img: np.ndarray, mask: np.ndarray, flag: float = np.nan) -> np.ndarray:
    """Write ``flag`` where mask == 0 (SetMask, preproc/image.py:448-470)."""
    out = img.astype(np.float64).copy()
    m = mask[:, :, 0] if mask.ndim == 3 else mask
    out[m == 0] = flag
    return out


def invert_mask(mask: np.ndarray) -> np.ndarray:
    """Flip a 0/1 mask (InvertMask, preproc/image.py:473-480)."""
    return (1 - (mask > 0).astype(np.uint8)) * 1


def rgb_to_hsl(img: np.ndarray) -> np.ndarray:
    """Vectorized RGB->HSL on [0,255] uint8 -> float64 [0,1] channels
    (preproc/optical.py:9-50 runs colorsys per pixel)."""
    f = img.astype(np.float64) / 255.0
    r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
    mx = f.max(axis=2)
    mn = f.min(axis=2)
    d = mx - mn
    ell = (mx + mn) / 2.0
    s = np.zeros_like(mx)
    nz = d > 0
    denom = 1.0 - np.abs(2.0 * ell - 1.0)
    s[nz] = d[nz] / np.where(denom[nz] > 0, denom[nz], 1.0)
    h = np.zeros_like(mx)
    rmax = nz & (mx == r)
    gmax = nz & (mx == g) & ~rmax
    bmax = nz & ~rmax & ~gmax
    h[rmax] = ((g - b)[rmax] / d[rmax]) % 6
    h[gmax] = (b - r)[gmax] / d[gmax] + 2
    h[bmax] = (r - g)[bmax] / d[bmax] + 4
    h /= 6.0
    return np.stack([h, s, ell], axis=2)


def hsl_to_rgb(img: np.ndarray) -> np.ndarray:
    """Inverse of ``rgb_to_hsl`` back to uint8."""
    h, s, ell = img[:, :, 0], img[:, :, 1], img[:, :, 2]
    c = (1.0 - np.abs(2.0 * ell - 1.0)) * s
    hp = h * 6.0
    x = c * (1.0 - np.abs(hp % 2 - 1.0))
    m = ell - c / 2.0
    i = np.floor(hp).astype(np.int64) % 6
    r = np.choose(i, [c, x, np.zeros_like(c), np.zeros_like(c), x, c])
    g = np.choose(i, [x, c, c, x, np.zeros_like(c), np.zeros_like(c)])
    b = np.choose(i, [np.zeros_like(c), np.zeros_like(c), x, c, c, x])
    return np.clip(np.rint((np.stack([r, g, b], axis=2) + m[:, :, None]) * 255.0), 0, 255).astype(np.uint8)


def rgb_to_hsv(img: np.ndarray) -> np.ndarray:
    """Vectorized RGB->HSV on [0,255] uint8 -> float64 [0,1] channels."""
    f = img.astype(np.float64) / 255.0
    r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
    mx = f.max(axis=2)
    mn = f.min(axis=2)
    d = mx - mn
    h = np.zeros_like(mx)
    nz = d > 0
    rmax = nz & (mx == r)
    gmax = nz & (mx == g) & ~rmax
    bmax = nz & ~rmax & ~gmax
    h[rmax] = ((g - b)[rmax] / d[rmax]) % 6
    h[gmax] = (b - r)[gmax] / d[gmax] + 2
    h[bmax] = (r - g)[bmax] / d[bmax] + 4
    h /= 6.0
    s = np.where(mx > 0, d / np.where(mx > 0, mx, 1), 0.0)
    return np.stack([h, s, mx], axis=2)


def hsv_to_rgb(img: np.ndarray) -> np.ndarray:
    h, s, v = img[:, :, 0] * 6.0, img[:, :, 1], img[:, :, 2]
    i = np.floor(h).astype(np.int64) % 6
    f = h - np.floor(h)
    p = v * (1 - s)
    q = v * (1 - f * s)
    t = v * (1 - (1 - f) * s)
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.clip(np.rint(np.stack([r, g, b], axis=2) * 255.0), 0, 255).astype(np.uint8)


# --- SAR ops: complex carried as channel pairs (re0, im0, re1, im1, ...) --

def _as_complex(img: np.ndarray) -> np.ndarray:
    assert img.shape[2] % 2 == 0, "SAR layout is (re, im) channel pairs"
    return img[:, :, 0::2].astype(np.float64) + 1j * img[:, :, 1::2].astype(np.float64)


def sar_amplitude(img: np.ndarray) -> np.ndarray:
    return np.abs(_as_complex(img))


def sar_intensity(img: np.ndarray) -> np.ndarray:
    a = np.abs(_as_complex(img))
    return a * a


def sar_phase(img: np.ndarray) -> np.ndarray:
    return np.angle(_as_complex(img))


def sar_decibels(img: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    return 10.0 * np.log10(sar_intensity(img) + eps)


def _from_complex(z: np.ndarray) -> np.ndarray:
    """[H,W,B] complex -> [H,W,2B] (re, im) channel pairs."""
    out = np.empty((*z.shape[:2], z.shape[2] * 2), dtype=np.float64)
    out[:, :, 0::2] = z.real
    out[:, :, 1::2] = z.imag
    return out


def sar_in_phase(img: np.ndarray) -> np.ndarray:
    """InPhase (preproc/sar.py:55-60): real component per band."""
    return _as_complex(img).real


def sar_quadrature(img: np.ndarray) -> np.ndarray:
    """Quadrature (preproc/sar.py:63-68): imaginary component per band."""
    return _as_complex(img).imag


def sar_conjugate(img: np.ndarray) -> np.ndarray:
    """Conjugate (preproc/sar.py:79-84), back to (re, im) pairs."""
    return _from_complex(np.conj(_as_complex(img)))


def sar_multiply_conjugate(img: np.ndarray, a: int = 0, b: int = 1) -> np.ndarray:
    """band a x conj(band b) (MultiplyConjugate, preproc/sar.py:87-101)."""
    z = _as_complex(img)
    return _from_complex((z[:, :, a] * np.conj(z[:, :, b]))[:, :, None])


def decomposition_pauli(img: np.ndarray, hh_band: int = 0, vv_band: int = 1,
                        xx_band: int = 2) -> np.ndarray:
    """Pauli decomposition (preproc/sar.py:203-227): complex (re, im)
    channel-pair stack -> [alpha2, beta2, gamma2] real channels."""
    z = _as_complex(img)
    hh, vv, xx = z[:, :, hh_band], z[:, :, vv_band], z[:, :, xx_band]
    alpha2 = 0.5 * np.abs(hh + vv) ** 2
    beta2 = 0.5 * np.abs(hh - vv) ** 2
    gamma2 = 2.0 * np.abs(xx) ** 2
    return np.stack([alpha2, beta2, gamma2], axis=2)


def decomposition_freeman_durden(img: np.ndarray, hh_band: int = 0, vv_band: int = 1,
                                 xx_band: int = 2, kernel_size: int = 5) -> np.ndarray:
    """Freeman-Durden 3-component decomposition -> [Ps, Pd, Pv]
    (re-derivation of preproc/sar.py:229-300 in direct numpy: covariance
    terms multilooked, volume = 1.5*C33 subtracted, surface/dihedral
    split on sign(Re c12))."""
    z = _as_complex(img)
    hh, vv, xx = z[:, :, hh_band], z[:, :, vv_band], z[:, :, xx_band]

    def _ml(arr):
        if np.iscomplexobj(arr):
            pairs = multilook(_from_complex(arr[:, :, None]), kernel_size)
            return pairs[:, :, 0] + 1j * pairs[:, :, 1]
        return multilook(arr[:, :, None], kernel_size)[:, :, 0]

    C11 = _ml(np.abs(hh) ** 2)
    C22 = _ml(np.abs(vv) ** 2)
    C33 = _ml(np.abs(xx) ** 2)
    C12 = _ml(hh * np.conj(vv))
    fv = 1.5 * C33
    c11 = C11 - fv
    c22 = C22 - fv
    c12 = C12 - fv / 3.0
    # clamp |c12|^2 <= c11*c22 keeping phase (sar.py:262-264)
    absc = np.abs(c12)
    bad = (c11 * c22 < absc**2) & (absc > 0)
    c12 = np.where(bad, np.sqrt(np.maximum(c11 * c22, 0.0)) * c12 / np.where(absc > 0, absc, 1.0), c12)
    surf = np.real(c12) >= 0
    s = np.where(surf, 1.0, -1.0)
    re12, im12 = np.real(c12), np.imag(c12)
    denom = c11 + c22 + 2 * re12 * s
    term1 = np.abs(
        np.divide(c11 * c22 - re12**2 - im12**2, denom,
                  out=np.zeros_like(denom), where=denom != 0)
    )
    term2 = np.abs(c22 - term1)
    term3 = np.divide(re12 + s * term1 + 1j * im12, term2,
                      out=np.zeros_like(c12), where=term2 != 0)
    fs = np.where(surf, term2, term1)
    fd = np.where(surf, term1, term2)
    alpha = np.where(surf, -1.0 + 0j, term3)
    beta = np.where(surf, term3, 1.0 + 0j)
    Ps = fs * (1.0 + np.abs(beta) ** 2)
    Pd = fd * (1.0 + np.abs(alpha) ** 2)
    dead = (c11 == 0) & (c22 == 0)
    Ps = np.where(dead, 0.0, Ps)
    Pd = np.where(dead, 0.0, Pd)
    return np.stack([Ps, Pd, fv], axis=2)


def decomposition_halpha(img: np.ndarray, band0: int = 0, band1: int = 1,
                         kernel_size: int = 5) -> np.ndarray:
    """Dual-pol H/alpha (Cloude-Pottier) decomposition -> [H, alpha]
    (preproc/sar.py:300-338): multilooked 2x2 coherence matrix
    eigendecomposition, entropy from pseudo-probabilities (natural
    log), alpha = sum p_i * arccos(|v_i0|)."""
    z = _as_complex(img)
    a, b = z[:, :, band0], z[:, :, band1]

    def _ml(arr):
        if np.iscomplexobj(arr):
            pairs = multilook(_from_complex(arr[:, :, None]), kernel_size)
            return pairs[:, :, 0] + 1j * pairs[:, :, 1]
        return multilook(arr[:, :, None], kernel_size)[:, :, 0]

    c00 = _ml(np.abs(a) ** 2)
    c11 = _ml(np.abs(b) ** 2)
    c01 = _ml(a * np.conj(b))
    tr = c00 + c11
    det = c00 * c11 - np.abs(c01) ** 2
    disc = np.sqrt(np.maximum(0.25 * tr**2 - det, 0.0))
    l1 = 0.5 * tr + disc
    l2 = 0.5 * tr - disc
    absv11 = np.abs(c01) / np.sqrt(np.abs(c01) ** 2 + np.abs(l1 - c00) ** 2)
    absv12 = np.abs(c01) / np.sqrt(np.abs(c01) ** 2 + np.abs(l2 - c00) ** 2)
    P1 = l1 / (l1 + l2)
    P2 = l2 / (l1 + l2)
    with np.errstate(divide="ignore", invalid="ignore"):
        H = -P1 * np.log(P1) - P2 * np.log(P2)
    H = np.where(np.isfinite(H), H, 0.0)
    alpha = P1 * np.arccos(np.clip(absv11, 0, 1)) + P2 * np.arccos(np.clip(absv12, 0, 1))
    return np.stack([H, alpha], axis=2)


def fit_gcp_affine(gcps: np.ndarray):
    """Least-squares affine (pixel -> geo) from GCP rows
    (px, py, gx, gy) — the gdal.Warp GCP path of Orthorectify
    (preproc/sar.py:172-200) reduced to its affine model."""
    from ..geom.affine import Affine

    g = np.asarray(gcps, dtype=np.float64)
    A = np.stack([g[:, 0], g[:, 1], np.ones(len(g))], axis=1)
    cx, res_x, *_ = np.linalg.lstsq(A, g[:, 2], rcond=None)
    cy, *_ = np.linalg.lstsq(A, g[:, 3], rcond=None)
    return Affine(cx[0], cx[1], cx[2], cy[0], cy[1], cy[2])


def orthorectify(img: np.ndarray, gcps: np.ndarray, method: str = "bilinear",
                 nodata: float = 0.0):
    """Resample a GCP-georeferenced image onto a north-up grid
    (Orthorectify, preproc/sar.py:172-200).  Returns (warped, dst_affine)."""
    from ..geom.affine import Affine
    from ..raster.warp import calculate_default_transform, warp_affine

    src_t = fit_gcp_affine(gcps)
    h, w = img.shape[:2]
    dst_t, dw, dh = calculate_default_transform(src_t, w, h, lambda x, y: (x, y))
    return warp_affine(img, src_t, dst_t, (dh, dw), method, nodata), dst_t


def multilook_complex(img: np.ndarray, k: int) -> np.ndarray:
    """Box-filter multilook of complex (re, im) channel pairs
    (MultilookComplex, preproc/sar.py:158-169): the complex mean is
    the channel-pair mean, so it reuses the real multilook kernel."""
    return multilook(img, k)


def multilook(img: np.ndarray, k: int) -> np.ndarray:
    """Uniform k x k box-filter multilook (preproc/sar.py:130-155) via
    integral image (O(HW) regardless of k)."""
    f = img.astype(np.float64)
    pad = k // 2
    p = np.pad(f, ((pad + 1, k - 1 - pad), (pad + 1, k - 1 - pad), (0, 0)), mode="edge")
    ii = p.cumsum(axis=0).cumsum(axis=1)
    h, w = f.shape[:2]
    s = (
        ii[k : k + h, k : k + w]
        - ii[:h, k : k + w]
        - ii[k : k + h, :w]
        + ii[:h, :w]
    )
    return s / (k * k)


# --- stage wrapper -------------------------------------------------------

class ImageOp:
    """map_batches body: decode -> composed kernels -> encode.

    ``ops`` is a list of (fn, kwargs); float results are min-max scaled
    back to uint8 for the codec (lossless formats keep exact uint8 ops
    exact).
    """

    def __init__(self, ops: list, out_fmt: str = "png"):
        self.ops = ops
        self.out_fmt = out_fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_bytes, out_w, out_h = [], [], []
        for i in range(batch.num_rows):
            img = codec.decode(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            if img.ndim == 2:
                img = img[:, :, None]
            for fn, kwargs in self.ops:
                img = fn(img, **kwargs)
                if img.ndim == 2:
                    img = img[:, :, None]
            if img.dtype != np.uint8:
                lo, hi = img.min(), img.max()
                img = (
                    np.zeros(img.shape, dtype=np.uint8)
                    if hi <= lo
                    else np.clip(np.rint((img - lo) / (hi - lo) * 255), 0, 255).astype(np.uint8)
                )
            out_bytes.append(codec.encode(img.squeeze(-1) if img.shape[2] == 1 else img, self.out_fmt))
            out_h.append(img.shape[0])
            out_w.append(img.shape[1])
        cols = {n: batch[n] for n in batch.column_names if n not in ("bytes", "fmt", "w", "h")}
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["fmt"] = pa.array([self.out_fmt] * batch.num_rows, pa.string())
        cols["w"] = pa.array(out_w, pa.int32())
        cols["h"] = pa.array(out_h, pa.int32())
        return pa.table(cols)


def apply_image_ops(images, ops: list, out_fmt: str = "png", batch_size: int = 8):
    return images.map_batches(
        ImageOp(ops, out_fmt), batch_format="pyarrow", batch_size=batch_size
    )
