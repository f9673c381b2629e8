"""Raster tiler — Solaris RasterTiler re-expressed as Ray Data stages.

Reference semantics (/root/reference/solaris/tile/raster_tile.py):

- the tile grid is a regular pixel grid of ``src_tile_size`` tiles over
  the image, edge tiles read *boundless* and padded with ``nodata``
  (tile_generator, raster_tile.py:329-416; grid planning via
  split_geom, utils/geo.py:743-837);
- tiles whose nodata fraction exceeds a threshold are dropped
  (raster_tile.py:189-204);
- each tile is named by the geo coordinates of its top-left corner,
  integer-formatted for metric CRS (save_tile, raster_tile.py:425-434)
  — here that name is the ``tile_id`` column instead of a filename.

Ray-Data mapping: ONE stateless ``map_batches`` fan-out does
decode + slice + encode per image row (no shuffle — image bytes never
move between stages), emitting N tile rows per image.  A separate
*plan-only* stage computes tile bounds without touching ``bytes`` (for
the vector-side join, which only needs geometry): prune the read to
metadata columns and the 100 TB of pixels stays in storage.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import cells
from ..geom.affine import Affine, apply_affine, invert_affine
from ..geom.crs import projection_unit
from ..raster import codec
from ..raster.kernels import rasterize_rings
from ..raster.warp import calculate_default_transform, crs_transformer, warp_affine

DEFAULT_TILE_SIZE = 128
# Partition resolution: cell edge = WORLD_SIZE / 2^res = 2^24 / 2^13 = 2048 m
# — at 0.5 m/px and 128 px tiles (64 m) the median cell holds O(1000) tiles;
# city clusters span a handful of cells (the skew case).
DEFAULT_CELL_RES = 13


def tile_grid_counts(w: np.ndarray, h: np.ndarray, tile_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Tiles per axis (ceil — edge tiles padded, boundless-read style)."""
    nx = -(-np.asarray(w, dtype=np.int64) // tile_size)
    ny = -(-np.asarray(h, dtype=np.int64) // tile_size)
    return nx, ny


def plan_tiles(
    batch: pa.Table,
    tile_size: int = DEFAULT_TILE_SIZE,
    cell_res: int = DEFAULT_CELL_RES,
    aoi: tuple[float, float, float, float] | None = None,
) -> pa.Table:
    """Image metadata rows -> tile-spec rows (NO pixel decode).

    Needs columns: image_id, w, h, gt_a..gt_f.  Pure arithmetic — the
    same inputs produce identical tile ids and bounds at any
    parallelism (split_geom determinism, SURVEY.md §4).

    ``aoi`` = (minx, miny, maxx, maxy) keeps only tiles intersecting
    the AOI — split_geom's AOI ∩ image-bounds grid restriction
    (solaris/utils/geo.py:743-837 drops non-intersecting tiles;
    restrict_to_aoi, raster_tile.py:169-181).
    """
    img_ids = batch["image_id"].to_numpy(zero_copy_only=False)
    ws = batch["w"].to_numpy()
    hs = batch["h"].to_numpy()
    gt = {k: batch[k].to_numpy() for k in ("gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f")}
    nx, ny = tile_grid_counts(ws, hs, tile_size)
    counts = nx * ny
    total = int(counts.sum())
    if total == 0:
        return pa.table(
            {
                "tile_id": pa.array([], pa.string()),
                "image_id": pa.array([], pa.string()),
                "cell": pa.array([], pa.int64()),
                "col": pa.array([], pa.int32()),
                "row": pa.array([], pa.int32()),
                "x0": pa.array([], pa.float64()),
                "y0": pa.array([], pa.float64()),
                "x1": pa.array([], pa.float64()),
                "y1": pa.array([], pa.float64()),
            }
        )
    rep = np.repeat(np.arange(len(img_ids)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total) - np.repeat(starts, counts)
    ny_rep = np.repeat(ny, counts)
    col = local // ny_rep
    row = local % ny_rep
    a = gt["gt_a"][rep]
    e = gt["gt_e"][rep]
    c = gt["gt_c"][rep]
    f = gt["gt_f"][rep]
    ts = float(tile_size)
    x0 = c + col * ts * a
    x1 = c + (col + 1) * ts * a
    ytop = f + row * ts * e
    ybot = f + (row + 1) * ts * e
    minx = np.minimum(x0, x1)
    maxx = np.maximum(x0, x1)
    miny = np.minimum(ytop, ybot)
    maxy = np.maximum(ytop, ybot)
    if aoi is not None:
        ax0, ay0, ax1, ay1 = aoi
        keep = (minx < ax1) & (maxx > ax0) & (miny < ay1) & (maxy > ay0)
        rep, col, row = rep[keep], col[keep], row[keep]
        minx, maxx, miny, maxy = minx[keep], maxx[keep], miny[keep], maxy[keep]
        total = int(keep.sum())
    cell = cells.cell_of_point((minx + maxx) * 0.5, (miny + maxy) * 0.5, cell_res)
    ids = img_ids[rep]
    # save_tile naming: int-rounded geo coords for metric CRS
    # (raster_tile.py:425-434); tile_id replaces the filename.
    tile_id = [
        f"{ids[i]}_{int(round(minx[i]))}_{int(round(miny[i]))}" for i in range(total)
    ]
    return pa.table(
        {
            "tile_id": pa.array(tile_id, pa.string()),
            "image_id": pa.array(ids, pa.string()),
            "cell": pa.array(cell.astype(np.int64), pa.int64()),
            "col": pa.array(col.astype(np.int32)),
            "row": pa.array(row.astype(np.int32)),
            "x0": pa.array(minx),
            "y0": pa.array(miny),
            "x1": pa.array(maxx),
            "y1": pa.array(maxy),
        }
    )


class TileCutter:
    """Stateless decode + slice + encode fan-out (map_batches body).

    One image row in -> nx*ny tile rows out, each with encoded tile
    pixels, nodata_frac, and the parent caption (per-row caption
    equality is part of the acceptance gate).  Edge tiles are padded
    with ``nodata`` exactly like the reference's boundless window read
    (raster_tile.py:367-378 fill_value=nodata).

    A plain function would do (no state), but a callable class lets
    callers choose an actor pool when decode dominates; the class holds
    only config (cheap to ship either way).
    """

    def __init__(
        self,
        tile_size: int = DEFAULT_TILE_SIZE,
        cell_res: int = DEFAULT_CELL_RES,
        nodata_threshold: float | None = None,
        out_fmt: str | None = None,
        dest_epsg: int | None = None,
        resampling: str = "bilinear",
        aoi: tuple[float, float, float, float] | np.ndarray | None = None,
        encode_level: int = 4,
    ):
        self.encode_level = encode_level
        self.tile_size = tile_size
        self.cell_res = cell_res
        self.nodata_threshold = nodata_threshold
        self.out_fmt = out_fmt  # None = keep source fmt
        # restrict_to_aoi (raster_tile.py:169-181): pixels outside the
        # AOI polygon become nodata BEFORE tiling.  A 4-tuple is a
        # rect; an (N, 2) array is a polygon ring in geo coords.
        if aoi is not None and not isinstance(aoi, np.ndarray):
            ax0, ay0, ax1, ay1 = aoi
            aoi = np.array(
                [[ax0, ay0], [ax1, ay0], [ax1, ay1], [ax0, ay1]], dtype=np.float64
            )
        self.aoi = aoi
        # dest_epsg != source epsg -> per-tile warp, mirroring
        # raster_tile.py:350-365 (calculate_default_transform +
        # warp.reproject, bilinear default)
        self.dest_epsg = dest_epsg
        self.resampling = resampling

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts = self.tile_size
        out: dict[str, list] = {
            k: []
            for k in (
                "tile_id",
                "image_id",
                "cell",
                "col",
                "row",
                "x0",
                "y0",
                "x1",
                "y1",
                "w",
                "h",
                "fmt",
                "bytes",
                "nodata_frac",
                "caption",
            )
        }
        n = batch.num_rows
        cols = {name: batch[name] for name in batch.column_names}
        for i in range(n):
            fmt = cols["fmt"][i].as_py()
            buf = cols["bytes"][i].as_py()
            img = codec.decode(buf, fmt)
            if img.ndim == 2:
                img = img[:, :, None]
            h, w = img.shape[:2]
            nodata = cols["nodata"][i].as_py() if "nodata" in cols else 0.0
            t = Affine(
                *(cols[f"gt_{k}"][i].as_py() for k in ("a", "b", "c", "d", "e", "f"))
            )
            image_id = cols["image_id"][i].as_py()
            caption = cols["caption"][i].as_py()
            out_fmt = self.out_fmt or fmt
            if self.aoi is not None:
                # rasterize the AOI in this image's pixel frame and
                # push everything outside to nodata
                inv = invert_affine(t)
                pxs, pys = apply_affine(inv, self.aoi[:, 0], self.aoi[:, 1])
                ring = np.stack([pxs, pys], axis=1)
                inside = rasterize_rings(
                    ring, np.asarray([0, len(ring)]), (h, w), values=1
                )
                img = img.copy()
                img[inside == 0] = nodata
            nx = -(-w // ts)
            ny = -(-h // ts)
            for col in range(nx):
                for row in range(ny):
                    xs, ys = col * ts, row * ts
                    tile = img[ys : ys + ts, xs : xs + ts]
                    pad_frac = 0.0
                    if tile.shape[0] < ts or tile.shape[1] < ts:
                        full = np.full((ts, ts, img.shape[2]), nodata, dtype=img.dtype)
                        full[: tile.shape[0], : tile.shape[1]] = tile
                        pad_frac = 1.0 - (tile.shape[0] * tile.shape[1]) / (ts * ts)
                        tile = full
                    # nodata_frac: padded + source-nodata pixels (all bands)
                    nodata_frac = float(
                        np.mean(np.all(tile == nodata, axis=-1))
                    )
                    if (
                        self.nodata_threshold is not None
                        and nodata_frac >= self.nodata_threshold
                    ):
                        continue  # raster_tile.py:189-204 threshold filter
                    src_epsg = int(cols["epsg"][i].as_py()) if "epsg" in cols else None
                    if (
                        self.dest_epsg is not None
                        and src_epsg is not None
                        and src_epsg != self.dest_epsg
                    ):
                        # per-tile warp (raster_tile.py:350-365)
                        tile_t = Affine(
                            t.a, t.b, t.c + xs * t.a + ys * t.b,
                            t.d, t.e, t.f + xs * t.d + ys * t.e,
                        )
                        fwd, inv = crs_transformer(src_epsg, self.dest_epsg)
                        dst_t, dw, dh = calculate_default_transform(
                            tile_t, ts, ts, fwd
                        )
                        tile = warp_affine(
                            tile, tile_t, dst_t, (dh, dw),
                            self.resampling, nodata, inv_fn=inv,
                        )
                        if tile.ndim == 2:
                            tile = tile[:, :, None]
                        gx0, gy1t = dst_t.c, dst_t.f
                        gx1 = dst_t.c + dw * dst_t.a
                        gy0 = dst_t.f + dh * dst_t.e
                        gy1 = gy1t
                        # save_tile keys naming on the DEST CRS unit
                        # (raster_tile.py:425-434): a projected (metric)
                        # target gets int-rounded names even after a warp
                        metric = projection_unit(self.dest_epsg) != "degree"
                    else:
                        gx0 = t.c + xs * t.a
                        gx1 = t.c + (xs + ts) * t.a
                        gy0 = t.f + ys * t.e
                        gy1 = t.f + (ys + ts) * t.e
                        # naming keys on the (unchanged) source CRS unit
                        metric = (
                            projection_unit(src_epsg) != "degree"
                            if src_epsg is not None
                            else True
                        )
                    minx, maxx = min(gx0, gx1), max(gx0, gx1)
                    miny, maxy = min(gy0, gy1), max(gy0, gy1)
                    cell = int(
                        cells.cell_of_point(
                            np.array([(minx + maxx) * 0.5]),
                            np.array([(miny + maxy) * 0.5]),
                            self.cell_res,
                        )[0]
                    )
                    # save_tile naming (raster_tile.py:425-434): int for
                    # metric CRS, 3-decimal rounding otherwise
                    out["tile_id"].append(
                        f"{image_id}_{int(round(minx))}_{int(round(miny))}"
                        if metric
                        else f"{image_id}_{round(minx, 3)}_{round(miny, 3)}"
                    )
                    out["image_id"].append(image_id)
                    out["cell"].append(cell)
                    out["col"].append(col)
                    out["row"].append(row)
                    out["x0"].append(minx)
                    out["y0"].append(miny)
                    out["x1"].append(maxx)
                    out["y1"].append(maxy)
                    out["w"].append(tile.shape[1])
                    out["h"].append(tile.shape[0])
                    out["fmt"].append(out_fmt)
                    out["bytes"].append(
                        codec.encode(
                            tile.squeeze(-1) if tile.shape[2] == 1 else tile,
                            out_fmt,
                            self.encode_level,
                        )
                    )
                    out["nodata_frac"].append(nodata_frac)
                    out["caption"].append(caption)
        return pa.table(
            {
                "tile_id": pa.array(out["tile_id"], pa.string()),
                "image_id": pa.array(out["image_id"], pa.string()),
                "cell": pa.array(out["cell"], pa.int64()),
                "col": pa.array(out["col"], pa.int32()),
                "row": pa.array(out["row"], pa.int32()),
                "x0": pa.array(out["x0"], pa.float64()),
                "y0": pa.array(out["y0"], pa.float64()),
                "x1": pa.array(out["x1"], pa.float64()),
                "y1": pa.array(out["y1"], pa.float64()),
                "w": pa.array(out["w"], pa.int32()),
                "h": pa.array(out["h"], pa.int32()),
                "fmt": pa.array(out["fmt"], pa.string()),
                "bytes": pa.array(out["bytes"], pa.binary()),
                "nodata_frac": pa.array(out["nodata_frac"], pa.float64()),
                "caption": pa.array(out["caption"], pa.string()),
            }
        )


def cut_tiles(
    images,
    tile_size: int = DEFAULT_TILE_SIZE,
    nodata_threshold: float | None = None,
    batch_size: int | None = None,
    cell_res: int = DEFAULT_CELL_RES,
    dest_epsg: int | None = None,
    resampling: str = "bilinear",
    aoi: tuple[float, float, float, float] | np.ndarray | None = None,
    encode_level: int = 4,
):
    """images Dataset -> tiles Dataset (the flagship fan-out).

    ``batch_size`` is small because rows are megabyte-scale encoded
    images and the fan-out multiplies bytes ~1x — keep
    batch x concurrency within worker heaps (SURVEY.md §4 memory notes).
    ``dest_epsg`` triggers the per-tile warp path (raster_tile.py:350-365).
    """
    return images.map_batches(
        TileCutter(
            tile_size=tile_size,
            nodata_threshold=nodata_threshold,
            cell_res=cell_res,
            dest_epsg=dest_epsg,
            resampling=resampling,
            aoi=aoi,
            encode_level=encode_level,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def plan_tiles_ds(
    images,
    tile_size: int = DEFAULT_TILE_SIZE,
    cell_res: int = DEFAULT_CELL_RES,
    aoi: tuple[float, float, float, float] | None = None,
):
    """images Dataset -> tile-spec Dataset (no pixels touched)."""
    return images.map_batches(
        lambda b: plan_tiles(b, tile_size, cell_res, aoi),
        batch_format="pyarrow",
        batch_size=1024,
    )
