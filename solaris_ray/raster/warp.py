"""Raster reprojection / warp kernels (pure numpy).

Replaces the rasterio warp path the reference tiler takes whenever
``dest_crs`` differs from the source CRS
(/root/reference/solaris/tile/raster_tile.py:350-365:
``calculate_default_transform`` + ``warp.reproject``) and the raster
branch of ``reproject`` (/root/reference/solaris/utils/geo.py:24-107).

Semantics:

- ``warp_affine``: inverse-mapping resample.  For every destination
  pixel center, map dst pixel -> dst geo (dst transform) -> src geo
  (``inv_fn``, identity for pure affine warps) -> src pixel (inverse
  src transform), then sample ``nearest`` (containing pixel:
  ``floor``) or ``bilinear`` (edge-clamped).  Out-of-source pixels get
  ``nodata`` — the boundless-read convention of the tiler.
- ``calculate_default_transform``: dst grid covering the forward image
  of the source bounds, preserving the per-axis pixel count (dst
  resolution = dst extent / src pixel count).  Deviation from
  rasterio's sqrt-area resolution rule (documented); pixel counts are
  what the downstream tile grid keys on.
- ``reproject_raster``: the Ray stage — stateless ``map_batches`` over
  image rows (decode -> warp -> encode), one row in / one row out,
  geotransform + epsg columns updated.  No shuffle: pixels never move
  between workers.

Vectorization: the whole destination grid is warped in one fused numpy
operation per image (no per-pixel Python).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import crs as crs_mod
from ..geom.affine import Affine, apply_affine, invert_affine


def _epsg_to_latlon(epsg: int):
    """Returns fn: (x, y in epsg) -> (lon, lat)."""
    if epsg == 4326:
        return lambda x, y: (x, y)
    if 32600 < epsg <= 32660:
        zone = epsg - 32600
        return lambda x, y: crs_mod.utm_to_latlon(x, y, zone, south=False)
    if 32700 < epsg <= 32760:
        zone = epsg - 32700
        return lambda x, y: crs_mod.utm_to_latlon(x, y, zone, south=True)
    raise ValueError(f"unsupported EPSG:{epsg} (4326 and UTM 326xx/327xx only)")


def _latlon_to_epsg(epsg: int):
    """Returns fn: (lon, lat) -> (x, y in epsg)."""
    if epsg == 4326:
        return lambda lon, lat: (lon, lat)
    if 32600 < epsg <= 32660 or 32700 < epsg <= 32760:
        zone = epsg % 100

        def fwd(lon, lat):
            e, n, _ = crs_mod.latlon_to_utm(lon, lat, zone=zone)
            return e, n

        return fwd
    raise ValueError(f"unsupported EPSG:{epsg} (4326 and UTM 326xx/327xx only)")


def crs_transformer(src_epsg: int, dst_epsg: int):
    """(fwd, inv) coordinate functions between two supported CRS.

    fwd: src coords -> dst coords; inv: dst -> src.  UTM<->UTM goes
    through a lat/lon intermediate (same as pyproj's pipeline).
    """
    if src_epsg == dst_epsg:
        ident = lambda x, y: (x, y)  # noqa: E731
        return ident, ident
    s2l, l2s = _epsg_to_latlon(src_epsg), _latlon_to_epsg(src_epsg)
    d2l, l2d = _epsg_to_latlon(dst_epsg), _latlon_to_epsg(dst_epsg)

    def fwd(x, y):
        lon, lat = s2l(x, y)
        return l2d(lon, lat)

    def inv(x, y):
        lon, lat = d2l(x, y)
        return l2s(lon, lat)

    return fwd, inv


def calculate_default_transform(
    src_transform: Affine, w: int, h: int, fwd_fn, densify: int = 21
) -> tuple[Affine, int, int]:
    """Destination grid for a warp (rasterio calculate_default_transform
    analogue, raster_tile.py:352-357).

    Maps a densified source boundary through ``fwd_fn``, takes the dst
    bounding box, and keeps the source pixel counts per axis.
    """
    ts = np.linspace(0.0, 1.0, densify)
    edge_px = np.concatenate(
        [
            np.stack([ts * w, np.zeros_like(ts)], axis=1),
            np.stack([ts * w, np.full_like(ts, h)], axis=1),
            np.stack([np.zeros_like(ts), ts * h], axis=1),
            np.stack([np.full_like(ts, w), ts * h], axis=1),
        ]
    )
    gx, gy = apply_affine(src_transform, edge_px[:, 0], edge_px[:, 1])
    dx, dy = fwd_fn(gx, gy)
    minx, maxx = float(np.min(dx)), float(np.max(dx))
    miny, maxy = float(np.min(dy)), float(np.max(dy))
    res_x = (maxx - minx) / w
    res_y = (maxy - miny) / h
    return Affine(res_x, 0.0, minx, 0.0, -res_y, maxy), int(w), int(h)


def warp_affine(
    img: np.ndarray,
    src_transform: Affine,
    dst_transform: Affine,
    dst_shape: tuple[int, int],
    method: str = "bilinear",
    nodata: float = 0.0,
    inv_fn=None,
) -> np.ndarray:
    """Inverse-mapping warp of [Y,X] or [Y,X,C] to the dst grid.

    ``inv_fn`` maps dst geo coords -> src geo coords (None = identity,
    i.e. a pure affine resample: scale / rotate / shift).
    """
    if img.ndim == 2:
        img = img[:, :, None]
        squeeze = True
    else:
        squeeze = False
    sh, sw = img.shape[:2]
    dh, dw = dst_shape
    rows, cols = np.indices((dh, dw), dtype=np.float64)
    # dst pixel centers -> dst geo
    gx, gy = apply_affine(dst_transform, cols + 0.5, rows + 0.5)
    if inv_fn is not None:
        gx, gy = inv_fn(gx, gy)
    # -> src fractional pixel coords
    inv_src = invert_affine(src_transform)
    fx, fy = apply_affine(inv_src, gx, gy)
    out = np.full((dh, dw, img.shape[2]), nodata, dtype=img.dtype)
    if method == "nearest":
        sx = np.floor(fx).astype(np.int64)
        sy = np.floor(fy).astype(np.int64)
        ok = (sx >= 0) & (sx < sw) & (sy >= 0) & (sy < sh)
        out[ok] = img[sy[ok], sx[ok]]
    elif method == "bilinear":
        # sample in grid coords anchored at pixel centers
        u = fx - 0.5
        v = fy - 0.5
        ok = (fx >= 0) & (fx < sw) & (fy >= 0) & (fy < sh)
        x0 = np.floor(u).astype(np.int64)
        y0 = np.floor(v).astype(np.int64)
        wx = (u - x0)[..., None]
        wy = (v - y0)[..., None]
        x0c = np.clip(x0, 0, sw - 1)
        x1c = np.clip(x0 + 1, 0, sw - 1)
        y0c = np.clip(y0, 0, sh - 1)
        y1c = np.clip(y0 + 1, 0, sh - 1)
        a = img[y0c, x0c].astype(np.float64)
        b = img[y0c, x1c].astype(np.float64)
        c = img[y1c, x0c].astype(np.float64)
        d = img[y1c, x1c].astype(np.float64)
        val = (a * (1 - wx) + b * wx) * (1 - wy) + (c * (1 - wx) + d * wx) * wy
        if np.issubdtype(img.dtype, np.integer):
            val = np.round(val)
        out[ok] = val.astype(img.dtype)[ok]
    else:
        raise ValueError(f"unknown resampling method: {method}")
    return out[:, :, 0] if squeeze else out


class RasterReprojector:
    """map_batches body: decode -> warp to dst CRS -> encode, per row.

    Stateless config holder (a callable class that ships with each
    task).  Expects columns: image_id,
    bytes, fmt, epsg, gt_a..gt_f, w, h [, nodata].
    """

    def __init__(self, dst_epsg: int, method: str = "bilinear", out_fmt: str | None = None):
        self.dst_epsg = dst_epsg
        self.method = method
        self.out_fmt = out_fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import codec

        has_nodata = "nodata" in batch.column_names
        out_rows: dict[str, list] = {
            k: [] for k in ("image_id", "bytes", "fmt", "epsg", "w", "h",
                            "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f")
        }
        if has_nodata:
            out_rows["nodata"] = []
        for i in range(batch.num_rows):
            src_epsg = int(batch["epsg"][i].as_py())
            fmt = batch["fmt"][i].as_py()
            img = codec.decode(batch["bytes"][i].as_py(), fmt)
            t = Affine(*(batch[f"gt_{k}"][i].as_py() for k in "abcdef"))
            w = int(batch["w"][i].as_py())
            h = int(batch["h"][i].as_py())
            nodata = float(batch["nodata"][i].as_py()) if "nodata" in batch.column_names else 0.0
            fwd, inv = crs_transformer(src_epsg, self.dst_epsg)
            if src_epsg == self.dst_epsg:
                dst_t, dw, dh = t, w, h
                warped = img
            else:
                dst_t, dw, dh = calculate_default_transform(t, w, h, fwd)
                warped = warp_affine(
                    img, t, dst_t, (dh, dw), self.method, nodata, inv_fn=inv
                )
            out_fmt = self.out_fmt or fmt
            out_rows["image_id"].append(batch["image_id"][i].as_py())
            out_rows["bytes"].append(codec.encode(warped, out_fmt))
            out_rows["fmt"].append(out_fmt)
            out_rows["epsg"].append(self.dst_epsg)
            out_rows["w"].append(dw)
            out_rows["h"].append(dh)
            for k, v in zip("abcdef", dst_t):
                out_rows[f"gt_{k}"].append(float(v))
            if has_nodata:
                # carry nodata through so a downstream TileCutter or a
                # second reproject keeps classifying padding correctly
                out_rows["nodata"].append(nodata)
        return pa.table(
            {
                "image_id": pa.array(out_rows["image_id"], pa.string()),
                "bytes": pa.array(out_rows["bytes"], pa.binary()),
                "fmt": pa.array(out_rows["fmt"], pa.string()),
                "epsg": pa.array(out_rows["epsg"], pa.int32()),
                "w": pa.array(out_rows["w"], pa.int32()),
                "h": pa.array(out_rows["h"], pa.int32()),
                **{
                    f"gt_{k}": pa.array(out_rows[f"gt_{k}"], pa.float64())
                    for k in "abcdef"
                },
                **(
                    {"nodata": pa.array(out_rows["nodata"], pa.float64())}
                    if has_nodata
                    else {}
                ),
            }
        )


def reproject_raster(images, dst_epsg: int, method: str = "bilinear",
                     out_fmt: str | None = None, batch_size: int | None = 8):
    """images Dataset -> reprojected images Dataset (no shuffle)."""
    return images.map_batches(
        RasterReprojector(dst_epsg, method, out_fmt),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
