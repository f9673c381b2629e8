"""Raster tiler — Solaris RasterTiler re-expressed as Ray Data stages.

Reference semantics (/root/reference/solaris/tile/raster_tile.py):

- the tile grid is a regular pixel grid of ``src_tile_size`` tiles over
  the image, edge tiles read *boundless* and padded with ``nodata``
  (tile_generator, raster_tile.py:329-416; grid planning via
  split_geom, utils/geo.py:743-837);
- tiles whose nodata fraction exceeds a threshold are dropped
  (raster_tile.py:189-204);
- each tile is named by the geo coordinates of its top-left corner,
  integer-formatted for metric CRS and rounded to 3 decimals for a
  degree CRS (save_tile, raster_tile.py:425-434) — here that name is
  the ``tile_id`` column instead of a filename.

Ray-Data mapping: ONE stateless ``map_batches`` fan-out decodes each
image row once and emits its N tile rows (no shuffle — image bytes
never move between stages).  A separate *plan-only* stage computes the
same tile specs without touching ``bytes`` (for the vector-side join,
which only needs geometry): prune the read to metadata columns and the
100 TB of pixels stays in storage.

Both stages share one vectorized grid pass (``_tile_grid``) and one
spec builder (``_tile_specs``: cell, naming), so a planned tile and a
cut tile carry the same id, cell and bounds.  The cutter works on whole
images: it pads each decoded image once to the tile grid, builds one
nodata mask and reduces it to every tile's ``nodata_frac`` in one
``sum``; only the encode (and a ``dest_epsg`` warp) runs per tile.
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


PLAN_SCHEMA = pa.schema(
    [
        ("tile_id", pa.string()),
        ("image_id", pa.string()),
        ("cell", pa.int64()),
        ("col", pa.int32()),
        ("row", pa.int32()),
        ("x0", pa.float64()),
        ("y0", pa.float64()),
        ("x1", pa.float64()),
        ("y1", pa.float64()),
    ]
)
TILE_SCHEMA = pa.schema(
    list(PLAN_SCHEMA)
    + [
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("bytes", pa.binary()),
        ("nodata_frac", pa.float64()),
        ("caption", pa.string()),
    ]
)


def _tile_grid(w, h, batch: pa.Table, tile_size: int):
    """Every tile of every image in one pass -> (rep, col, row, bounds).

    Tiles run image by image, column-major within an image; ``rep`` is
    each tile's image row in ``batch`` (which supplies gt_a..gt_f) and
    ``bounds`` = [minx, miny, maxx, maxy] float64 arrays.
    """
    nx, ny = tile_grid_counts(w, h, tile_size)
    counts = nx * ny
    rep = np.repeat(np.arange(len(counts)), counts)
    local = np.arange(len(rep)) - (np.cumsum(counts) - counts)[rep]
    col = local // ny[rep]
    row = local % ny[rep]
    a, c, e, f = (batch[k].to_numpy()[rep] for k in ("gt_a", "gt_c", "gt_e", "gt_f"))
    ts = float(tile_size)
    x0 = c + col * ts * a
    x1 = c + (col + 1) * ts * a
    ytop = f + row * ts * e
    ybot = f + (row + 1) * ts * e
    bounds = [
        np.minimum(x0, x1), np.minimum(ytop, ybot), np.maximum(x0, x1), np.maximum(ytop, ybot)
    ]
    return rep, col, row, bounds


def _degree_crs(batch: pa.Table) -> np.ndarray:
    """Per image: is its CRS in degrees?  False for a null ``epsg`` and
    for every image of a batch without the column."""
    if "epsg" not in batch.column_names:
        return np.zeros(batch.num_rows, bool)
    return np.array(
        [e is not None and projection_unit(int(e)) == "degree" for e in batch["epsg"].to_pylist()],
        bool,
    )


def _tile_specs(batch: pa.Table, rep, col, row, bounds, degree, cell_res: int) -> dict:
    """The PLAN_SCHEMA columns of tiles given their bounds.

    save_tile naming (raster_tile.py:425-434): int-rounded top-left
    geo coords where the image's ``degree`` flag is off (a metric CRS),
    3-decimal rounding where it is on; ``tile_id`` replaces the filename.
    """
    ids = batch["image_id"].to_numpy(zero_copy_only=False)[rep]
    minx, miny, maxx, maxy = bounds
    cell = cells.cell_of_point((minx + maxx) * 0.5, (miny + maxy) * 0.5, cell_res)
    tile_id = [
        f"{i}_{round(x, 3)}_{round(y, 3)}" if d else f"{i}_{int(round(x))}_{int(round(y))}"
        for i, x, y, d in zip(ids.tolist(), minx.tolist(), miny.tolist(), degree[rep].tolist())
    ]
    return {
        "tile_id": tile_id,
        "image_id": ids,
        "cell": cell.astype(np.int64),
        "col": col,
        "row": row,
        "x0": minx,
        "y0": miny,
        "x1": maxx,
        "y1": maxy,
    }


def plan_tiles(
    batch: pa.Table,
    tile_size: int = DEFAULT_TILE_SIZE,
    cell_res: int = DEFAULT_CELL_RES,
    aoi: tuple[float, float, float, float] | None = None,
) -> pa.Table:
    """Image metadata rows -> tile-spec rows (NO pixel decode).

    Needs columns: image_id, w, h, gt_a..gt_f; an optional ``epsg``
    column picks the naming unit per image.  Pure arithmetic — the
    same inputs produce identical tile ids and bounds at any
    parallelism (split_geom determinism, SURVEY.md §4).

    ``aoi`` = (minx, miny, maxx, maxy) keeps only tiles intersecting
    the AOI — split_geom's AOI ∩ image-bounds grid restriction
    (solaris/utils/geo.py:743-837 drops non-intersecting tiles;
    restrict_to_aoi, raster_tile.py:169-181).
    """
    w, h = batch["w"].to_numpy(), batch["h"].to_numpy()
    rep, col, row, bounds = _tile_grid(w, h, batch, tile_size)
    if aoi is not None:
        ax0, ay0, ax1, ay1 = aoi
        minx, miny, maxx, maxy = bounds
        keep = (minx < ax1) & (maxx > ax0) & (miny < ay1) & (maxy > ay0)
        rep, col, row = rep[keep], col[keep], row[keep]
        bounds = [b[keep] for b in bounds]
    specs = _tile_specs(batch, rep, col, row, bounds, _degree_crs(batch), cell_res)
    return pa.Table.from_pydict(specs, schema=PLAN_SCHEMA)


class TileCutter:
    """Stateless decode + slice + encode fan-out (map_batches body).

    One image row in -> nx*ny tile rows out, each with encoded tile
    pixels, nodata_frac, and the parent caption (per-row caption
    equality is part of the acceptance gate).  Edge tiles are padded
    with ``nodata`` exactly like the reference's boundless window read
    (raster_tile.py:367-378 fill_value=nodata).

    Per image: decode once, pad once to the (ny*ts, nx*ts) grid, build
    one all-bands nodata mask and take every tile's ``nodata_frac``
    from one block sum over it.  Tile geometry, cells and names come
    from the batch-wide grid pass that ``plan_tiles`` uses; each kept
    tile is one ``codec.encode`` of a view into the padded image.  A
    ``dest_epsg`` warp stays per tile and takes its bounds from the
    warped grid.

    A plain function would do (no state); the callable class holds
    only config, which ships with each task.
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
        if batch.num_rows == 0:
            return TILE_SCHEMA.empty_table()
        ts = self.tile_size
        n = batch.num_rows
        fmts = batch["fmt"].to_pylist()
        # a null nodata is "no nodata value", like a batch without the column
        nodatas = [0.0] * n
        if "nodata" in batch.column_names:
            nodatas = [0.0 if v is None else v for v in batch["nodata"].to_pylist()]
        epsgs = [None] * n
        if "epsg" in batch.column_names:
            epsgs = [None if e is None else int(e) for e in batch["epsg"].to_pylist()]
        gts = zip(*(batch[f"gt_{k}"].to_pylist() for k in "abcdef"))
        degree = _degree_crs(batch)
        shapes, fracs, keep = [], [], []
        tile_w, tile_h, data = [], [], []
        warped, warped_bounds = [], []  # output positions and dst bounds of warped tiles
        for i, (buf, gt) in enumerate(zip(batch["bytes"], gts)):
            img = codec.decode(buf.as_py(), fmts[i])
            if img.ndim == 2:
                img = img[:, :, None]
            h, w, nb = img.shape
            shapes.append((w, h))
            nx, ny = -(-w // ts), -(-h // ts)
            nodata, t = nodatas[i], Affine(*gt)
            padded = img
            if (ny * ts, nx * ts) != (h, w) or self.aoi is not None:
                padded = np.full((ny * ts, nx * ts, nb), nodata, dtype=img.dtype)
                padded[:h, :w] = img
            if self.aoi is not None:
                # rasterize the AOI in this image's pixel frame and
                # push everything outside to nodata
                pxs, pys = apply_affine(invert_affine(t), self.aoi[:, 0], self.aoi[:, 1])
                ring = np.stack([pxs, pys], axis=1)
                inside = rasterize_rings(ring, np.asarray([0, len(ring)]), (h, w), values=1)
                padded[:h, :w][inside == 0] = nodata
            # nodata_frac: padded + source-nodata pixels (all bands), one
            # value per tile in grid order (column-major)
            mask = padded[:, :, 0] == nodata
            for band in range(1, nb):
                mask &= padded[:, :, band] == nodata
            frac = mask.reshape(ny, ts, nx, ts).sum((1, 3)).T.ravel() / (ts * ts)
            kept = np.ones(len(frac), bool)
            if self.nodata_threshold is not None:
                kept = ~(frac >= self.nodata_threshold)  # raster_tile.py:189-204
            fracs.append(frac)
            keep.append(kept)
            src_epsg = epsgs[i]
            warp = self.dest_epsg is not None and src_epsg not in (None, self.dest_epsg)
            if warp:
                # per-tile warp (raster_tile.py:350-365); save_tile keys
                # naming on the DEST CRS unit (raster_tile.py:425-434): a
                # projected target gets int-rounded names even after a warp
                fwd, inv = crs_transformer(src_epsg, self.dest_epsg)
                degree[i] = projection_unit(self.dest_epsg) == "degree"
            out_fmt = self.out_fmt or fmts[i]
            for k in np.flatnonzero(kept).tolist():
                xs, ys = (k // ny) * ts, (k % ny) * ts
                tile = padded[ys : ys + ts, xs : xs + ts]
                if warp:
                    tile_t = Affine(
                        t.a, t.b, t.c + xs * t.a + ys * t.b,
                        t.d, t.e, t.f + xs * t.d + ys * t.e,
                    )
                    dst_t, dw, dh = calculate_default_transform(tile_t, ts, ts, fwd)
                    tile = warp_affine(
                        tile, tile_t, dst_t, (dh, dw), self.resampling, nodata, inv_fn=inv
                    )
                    if tile.ndim == 2:
                        tile = tile[:, :, None]
                    gx0, gx1 = dst_t.c, dst_t.c + dw * dst_t.a
                    gy0, gy1 = dst_t.f + dh * dst_t.e, dst_t.f
                    warped.append(len(data))
                    warped_bounds.append(
                        (min(gx0, gx1), min(gy0, gy1), max(gx0, gx1), max(gy0, gy1))
                    )
                tile_w.append(tile.shape[1])
                tile_h.append(tile.shape[0])
                data.append(codec.encode(
                    tile[:, :, 0] if tile.shape[2] == 1 else tile, out_fmt, self.encode_level
                ))
        w, h = np.array(shapes, np.int64).T
        rep, col, row, bounds = _tile_grid(w, h, batch, ts)
        keep = np.concatenate(keep)
        rep, col, row = rep[keep], col[keep], row[keep]
        bounds = [b[keep] for b in bounds]
        for b, wb in zip(bounds, np.array(warped_bounds).reshape(-1, 4).T):
            b[warped] = wb
        specs = _tile_specs(batch, rep, col, row, bounds, degree, self.cell_res)
        specs.update(
            w=tile_w,
            h=tile_h,
            fmt=[self.out_fmt or fmts[i] for i in rep.tolist()],
            bytes=data,
            nodata_frac=np.concatenate(fracs)[keep],
            caption=batch["caption"].to_numpy(zero_copy_only=False)[rep],
        )
        return pa.Table.from_pydict(specs, schema=TILE_SCHEMA)


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

    ``batch_size=None`` cuts each read block in one call; the reader
    sizes blocks at about one shard file each, so the cut fuses with the
    read and a task holds one shard's images and tiles.  Pass a row
    count to bound that heap (rows are megabyte-scale encoded images and
    the fan-out multiplies bytes ~1x; SURVEY.md §4 memory notes).
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
