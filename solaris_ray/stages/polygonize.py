"""Mask -> polygon extraction — Solaris mask_to_poly_geojson semantics.

Reference (/root/reference/solaris/vector/mask.py):

- ``preds_to_binary`` (:669-715): weighted channel sum -> threshold ->
  uint8*255.
- ``mask_to_poly_geojson`` (:718-818): polygonize (rasterio shapes),
  bg_threshold filter, ``min_area`` filter, optional simplify
  (Douglas-Peucker), optional px->geo transform.

Ray mapping: one mask row in -> N polygon rows out (flat-map shape via
map_batches).  ``MaskPolygonizer`` decodes a batch's masks and
polygonizes them a chunk at a time with raster.kernels.polygonize_stack:
one zero-separated stack per chunk, one run table, one paint and one
loop trace over it (4-connected component tracing), and the chunk's
rows built as Arrow list arrays straight from the kernel's offsets.
Output coords are pixel-space; ``transforms.georegister_batch`` maps
them to geo coordinates (convert_poly_coords,
solaris/vector/polygon.py:17-89).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..raster import codec
from ..raster.kernels import Polygons, polygonize_stack, simplify_ring

POLY_SCHEMA = pa.schema(
    [
        ("tile_id", pa.string()),
        ("poly_id", pa.int32()),
        ("xs", pa.list_(pa.float64())),
        ("ys", pa.list_(pa.float64())),
        ("hxs", pa.list_(pa.list_(pa.float64()))),
        ("hys", pa.list_(pa.list_(pa.float64()))),
        ("area_px", pa.float64()),
        ("n_verts", pa.int32()),
        ("n_holes", pa.int32()),
    ]
)


def _shoelace(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))) / 2


def preds_to_binary_batch(
    batch: pa.Table,
    channel_scaling: list[float] | None = None,
    bg_threshold: float = 0.0,
    fmt: str = "png",
    pred_col: str = "pred",
) -> pa.Table:
    """Multi-channel float preds -> binary uint8 mask rows."""
    out = []
    for i in range(batch.num_rows):
        arr = codec.decode(batch[pred_col][i].as_py(), fmt).astype(np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        w = np.asarray(channel_scaling if channel_scaling is not None else [1.0] * arr.shape[2])
        summed = (arr * w[None, None, :]).sum(axis=2)
        binary = ((summed > bg_threshold) * 255).astype(np.uint8)
        out.append(codec.encode(binary, fmt))
    return batch.set_column(
        batch.schema.get_field_index(pred_col), pred_col, pa.array(out, pa.binary())
    )


# Mask pixels per stack: the stacked kernel's sorts grow with the
# stack, so a batch is polygonized a bounded chunk at a time, each mask
# counted at the batch's largest size (2^20 px: 64 tiles of 128 px).
CHUNK_PIXELS = 1 << 20


def _lists(values: np.ndarray | pa.Array, lens: np.ndarray) -> pa.ListArray:
    return pa.ListArray.from_arrays(pa.array(np.append(0, np.cumsum(lens)), pa.int32()), values)


class MaskPolygonizer:
    """map_batches body: mask rows -> polygon rows (1 -> N fan-out).

    The masks of a batch are decoded, then polygonized ``CHUNK_PIXELS``
    at a time by ``polygonize_stack``; each chunk's rows are built as
    Arrow arrays straight from its offsets.  A null mask raises
    ``ValueError`` naming its tile and the mask column.
    """

    def __init__(self, min_area: float = 0.0, simplify_tol: float = 0.0,
                 mask_col: str = "mask", fmt: str = "png"):
        self.min_area = min_area
        self.simplify_tol = simplify_tol
        self.mask_col = mask_col
        self.fmt = fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.mask_col]
        if col.null_count:
            i = int(np.argmax(col.is_null().to_numpy(zero_copy_only=False)))
            raise ValueError(f"tile {batch['tile_id'][i].as_py()!r}: null mask in column {self.mask_col!r}")
        masks = [codec.decode(b, self.fmt) for b in col.to_pylist()]
        masks = [m[:, :, 0] if m.ndim == 3 else m for m in masks]
        if not masks:
            return POLY_SCHEMA.empty_table()
        h, w = np.max([m.shape for m in masks], axis=0)
        step = max(1, CHUNK_PIXELS // max(h * w, 1))
        return pa.concat_tables([
            self._rows(batch["tile_id"], a, polygonize_stack(masks[a : a + step], self.min_area))
            for a in range(0, len(masks), step)])

    def _rows(self, tile_id: pa.ChunkedArray, first: int, p: Polygons) -> pa.Table:
        """One chunk's polygon rows; its masks start at batch row ``first``."""
        area, vo, coords = p.area, p.vertex_offsets, p.coords
        if self.simplify_tol > 0:
            rings = [simplify_ring(coords[a:b], self.simplify_tol) for a, b in zip(vo[:-1], vo[1:])]
            # net area = outer shoelace minus hole shoelaces
            area = [_shoelace(rings[a]) - sum(_shoelace(hh) for hh in rings[a + 1 : b])
                    for a, b in zip(p.ring_offsets[:-1], p.ring_offsets[1:])]
            vo = np.cumsum([0] + [len(r) for r in rings])
            coords = np.concatenate(rings) if rings else coords
        lens = np.diff(vo)
        outer = np.zeros(len(lens), dtype=bool)
        outer[p.ring_offsets[:-1]] = True
        on_outer = np.repeat(outer, lens)
        n_holes = np.diff(p.ring_offsets) - 1
        cols = {
            "tile_id": tile_id.take(pa.array(p.mask + first)).cast(pa.string()),
            "poly_id": np.arange(len(p.mask)) - np.searchsorted(p.mask, p.mask),
            "area_px": area,
            "n_verts": lens[outer],
            "n_holes": n_holes,
        }
        for name, xy in (("x", coords[:, 0]), ("y", coords[:, 1])):
            cols[f"{name}s"] = _lists(xy[on_outer], lens[outer])
            cols[f"h{name}s"] = _lists(_lists(xy[~on_outer], lens[~outer]), n_holes)
        return pa.table(cols, schema=POLY_SCHEMA)


def masks_to_polygons(masks, mask_col: str = "footprint", min_area: float = 0.0,
                      simplify_tol: float = 0.0, fmt: str = "png", batch_size: int = 64):
    """masks Dataset -> polygons Dataset (mask_to_poly_geojson analogue)."""
    return masks.map_batches(
        MaskPolygonizer(min_area=min_area, simplify_tol=simplify_tol, mask_col=mask_col, fmt=fmt),
        batch_format="pyarrow",
        batch_size=batch_size,
    )
