"""Mask generation — Solaris vector/mask.py re-expressed per tile row.

Reference semantics (/root/reference/solaris/vector/mask.py):

- ``footprint_mask`` (:135-236): rasterize footprints, burn value 255
  (or per-row burn_field).
- ``boundary_mask`` (:239-318): square-strel erosion (inner) or
  dilation (outer) XOR footprint, binarized x burn value.
- ``contact_mask`` (:321-444): buffer geoms by spacing/2, rasterize the
  pairwise internal intersections, subtract footprint pixels.
- ``road_mask`` (:447-564): buffer linestrings by width/2, rasterize.
- ``instance_mask`` (:845-976): one channel per object.
- ``df_to_px_mask`` (:19-132): stack footprint/boundary/contact.

Deviation (documented): buffers run in *pixel space with a square
structuring element* (dilate_square) instead of shapely's round-cap
geometric buffer — identical on axis-aligned geometry, within 1 px on
diagonals; our goldens are computed against this engine's own scalar
oracle, never against shapely output.

Ray-Data mapping: the tile is the unit of work.  After the spatial
join, rows already carry per-feature geo coords; ``_buckets.co_shuffle``
on ``tile_id`` co-locates a tile's features in one bucket and
``_buckets.per_key`` runs the pure-numpy kernels once per tile of the
bucket (SURVEY.md §2.9).  The shuffle is as wide as
``_buckets.shuffle_width`` says (the session's CPUs or the input's
blocks, whichever is more), never a fixed count.  Masks are emitted as
PNG-compressed binary columns (wide fixed lists would blow up block
sizes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.poly import buffer_convex
from ..raster import codec
from ..raster.kernels import (
    dilate_square,
    erode_square,
    rasterize_lines,
    rasterize_rings,
    ring_spans,
    span_cover,
)
from ._buckets import co_shuffle, per_key, shuffle_width

MASK_SCHEMA = pa.schema(
    [
        ("tile_id", pa.string()),
        ("image_id", pa.string()),
        ("n_features", pa.int64()),
        ("footprint", pa.binary()),
        ("boundary", pa.binary()),
        ("contact", pa.binary()),
        ("road", pa.binary()),
        ("footprint_px", pa.int64()),
        ("boundary_px", pa.int64()),
        ("contact_px", pa.int64()),
        ("road_px", pa.int64()),
    ]
)


def _is_convex(ring: np.ndarray) -> bool:
    """All cross products of consecutive edges share a sign."""
    if len(ring) < 4:
        return True
    e = np.diff(np.vstack([ring, ring[:2]]), axis=0)
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    return bool((cross >= -1e-9).all() or (cross <= 1e-9).all())


def _to_pixel_rings(
    xs_list, ys_list, x0: float, y1: float, px: float, py: float
) -> tuple[np.ndarray, np.ndarray]:
    """Geo coords -> packed pixel-space rings for one tile.

    Tile affine is (px, 0, x0, 0, -py, y1): pixel col = (x-x0)/px,
    row = (y1-y)/py — the inverse of the save_tile georeferencing
    (raster_tile.py:440-447).
    """
    coords = []
    offsets = [0]
    for xs, ys in zip(xs_list, ys_list):
        cx = (np.asarray(xs) - x0) / px
        cy = (y1 - np.asarray(ys)) / py
        coords.append(np.stack([cx, cy], axis=1))
        offsets.append(offsets[-1] + len(cx))
    if not coords:
        return np.empty((0, 2)), np.asarray([0], dtype=np.int64)
    return np.concatenate(coords), np.asarray(offsets, dtype=np.int64)


def tile_masks(
    group: pa.Table,
    tile_size: int = 128,
    boundary_width: int = 3,
    boundary_type: str = "inner",
    contact_spacing: int = 10,
    road_width: int = 4,
    burn_value: int = 255,
    out_fmt: str = "png",
) -> pa.Table:
    """One joined-tile group -> one mask row (the map_groups kernel).

    Expects columns: tile_id, image_id, class, xs, ys, x0, y0, x1, y1.
    """
    empty = np.zeros((tile_size, tile_size), dtype=np.uint8)
    if group.num_rows == 0:
        return MASK_SCHEMA.empty_table()
    tid = group["tile_id"][0].as_py()
    iid = group["image_id"][0].as_py()
    x0 = float(group["x0"][0].as_py())
    y0 = float(group["y0"][0].as_py())
    x1 = float(group["x1"][0].as_py())
    y1 = float(group["y1"][0].as_py())
    px = (x1 - x0) / tile_size
    py = (y1 - y0) / tile_size
    klass = np.asarray(group["class"].to_pylist())
    xs_all = group["xs"].to_pylist()
    ys_all = group["ys"].to_pylist()

    is_poly = klass != "road"
    poly_idx = np.nonzero(is_poly)[0]
    road_idx = np.nonzero(~is_poly)[0]

    shape = (tile_size, tile_size)
    coords, offsets = _to_pixel_rings(
        [xs_all[i] for i in poly_idx], [ys_all[i] for i in poly_idx], x0, y1, px, py
    )
    footprint = rasterize_rings(coords, offsets, shape, values=burn_value)

    # boundary_mask (:239-318): morphology XOR footprint
    fb = (footprint > 0).astype(np.uint8)
    if boundary_type == "inner":
        morphed = erode_square(fb, boundary_width)
    else:
        morphed = dilate_square(fb, boundary_width)
    boundary = ((morphed ^ fb) > 0).astype(np.uint8) * burn_value

    # contact_mask (:321-444): buffer each footprint by spacing/2;
    # contact = pixels covered by >= 2 buffered objects, minus
    # footprint pixels.  Convex rings take the GEOMETRIC buffer
    # (buffer_convex — closer to the reference's shapely buffer than a
    # square dilation), all counted from one span table; the rare
    # non-convex ring falls back to pixel dilation.
    k = max(1, int(round(contact_spacing / 2)))
    if len(poly_idx) >= 2:
        cover = np.zeros(shape, dtype=np.int16)
        bufs = []
        for i in range(len(poly_idx)):
            ring = coords[offsets[i] : offsets[i + 1]]
            if _is_convex(ring):
                bufs.append(buffer_convex(ring, float(k)))
            else:
                one = rasterize_rings(
                    ring, np.asarray([0, len(ring)]), shape, values=1
                )
                cover += dilate_square(one, 2 * k + 1)
        if bufs:
            buf_offsets = np.cumsum([0] + [len(b) for b in bufs])
            _, row, xa, xb = ring_spans(np.concatenate(bufs), buf_offsets, *shape)
            cover += span_cover(row, xa, xb, shape)
        contact = ((cover >= 2) & (footprint == 0)).astype(np.uint8) * burn_value
    else:
        contact = empty.copy()

    # road_mask (:447-564): centerline + width dilation
    if len(road_idx):
        rc, ro = _to_pixel_rings(
            [xs_all[i] for i in road_idx], [ys_all[i] for i in road_idx], x0, y1, px, py
        )
        center = rasterize_lines(rc, ro, shape, value=1)
        road = dilate_square(center, road_width).astype(np.uint8) * burn_value
    else:
        road = empty.copy()

    enc = lambda m: codec.encode(m, out_fmt)  # noqa: E731
    return pa.table(
        {
            "tile_id": pa.array([tid], pa.string()),
            "image_id": pa.array([iid], pa.string()),
            "n_features": pa.array([group.num_rows], pa.int64()),
            "footprint": pa.array([enc(footprint)], pa.binary()),
            "boundary": pa.array([enc(boundary)], pa.binary()),
            "contact": pa.array([enc(contact)], pa.binary()),
            "road": pa.array([enc(road)], pa.binary()),
            "footprint_px": pa.array([int((footprint > 0).sum())], pa.int64()),
            "boundary_px": pa.array([int((boundary > 0).sum())], pa.int64()),
            "contact_px": pa.array([int((contact > 0).sum())], pa.int64()),
            "road_px": pa.array([int((road > 0).sum())], pa.int64()),
        }
    )


def masks_from_join(joined, tile_size: int = 128, n_buckets: int | None = None, **kwargs):
    """tile_features Dataset -> masks Dataset (one row per tile).

    The join output must carry tile bounds; if it doesn't, join them
    back by tile_id first.  ``co_shuffle`` on ``tile_id`` brings all
    rows of a tile into one bucket and ``per_key`` runs ``tile_masks``
    once per tile of it, many tiles per task.  ``n_buckets`` (the
    shuffle's block count) defaults to ``_buckets.shuffle_width(joined)``.
    """
    return co_shuffle(
        joined, "tile_id",
        per_key("tile_id", lambda group: tile_masks(group, tile_size=tile_size, **kwargs)),
        n_buckets,
    )


def instance_masks(joined, tile_size: int = 128, burn_value: int = 255,
                   out_fmt: str = "png"):
    """One row per (tile, feature) with that feature's own mask —
    the sparse-row replacement for instance_mask's [Y,X,n] ndarray
    (solaris/vector/mask.py:845-976; SURVEY.md §7.4 wide-row note).

    The input is repartitioned first, into
    ``_buckets.shuffle_width(joined)`` blocks: a join that materialized
    to one block would rasterize every instance in ONE task (task
    granularity is blocks, not batches)."""
    joined = joined.repartition(shuffle_width(joined))

    def _one(batch: pa.Table) -> pa.Table:
        out = {
            "tile_id": [], "image_id": [], "feature_id": [], "mask": [], "mask_px": [],
        }
        xs_all = batch["xs"].to_pylist()
        ys_all = batch["ys"].to_pylist()
        for i in range(batch.num_rows):
            x0 = float(batch["x0"][i].as_py())
            y1 = float(batch["y1"][i].as_py())
            px = (float(batch["x1"][i].as_py()) - x0) / tile_size
            py = (y1 - float(batch["y0"][i].as_py())) / tile_size
            coords, offsets = _to_pixel_rings([xs_all[i]], [ys_all[i]], x0, y1, px, py)
            m = rasterize_rings(coords, offsets, (tile_size, tile_size), values=burn_value)
            out["tile_id"].append(batch["tile_id"][i].as_py())
            out["image_id"].append(batch["image_id"][i].as_py())
            out["feature_id"].append(batch["feature_id"][i].as_py())
            out["mask"].append(codec.encode(m, out_fmt))
            out["mask_px"].append(int((m > 0).sum()))
        return pa.table(
            {
                "tile_id": pa.array(out["tile_id"], pa.string()),
                "image_id": pa.array(out["image_id"], pa.string()),
                "feature_id": pa.array(out["feature_id"], pa.int64()),
                "mask": pa.array(out["mask"], pa.binary()),
                "mask_px": pa.array(out["mask_px"], pa.int64()),
            }
        )

    return joined.map_batches(_one, batch_format="pyarrow", batch_size=256)


def zero_nodata_instances(inst_ds, tiles_ds, nodata: float = 0.0, out_fmt: str = "png"):
    """Zero instance-mask pixels where the reference tile is nodata in
    ALL bands (solaris/vector/mask.py:950-961).

    Distributed as a ``co_shuffle`` on ``tile_id`` with a ``per_key``
    kernel: instance rows and the tile's pixel row meet in one call;
    the nodata mask is computed once per tile and ANDed into every
    instance mask.  Tiles without
    pixels pass instances through unchanged (no reference image -> no
    zeroing, matching the reference's ``reference_im=None`` path).
    """

    def _tag_inst(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "tile_id": b["tile_id"],
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "image_id": b["image_id"],
                "feature_id": b["feature_id"],
                "payload": b["mask"],
                "fmt": pa.array([out_fmt] * n, pa.string()),
            }
        )

    def _tag_tile(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "tile_id": b["tile_id"],
                "side": pa.array(np.ones(n, dtype=np.int8)),
                "image_id": b["image_id"],
                "feature_id": pa.nulls(n, pa.int64()),
                "payload": b["bytes"],
                "fmt": b["fmt"],
            }
        )

    inst = inst_ds.map_batches(_tag_inst, batch_format="pyarrow")
    tiles = tiles_ds.map_batches(_tag_tile, batch_format="pyarrow")

    empty = pa.schema(
        [
            ("tile_id", pa.string()),
            ("image_id", pa.string()),
            ("feature_id", pa.int64()),
            ("mask", pa.binary()),
            ("mask_px", pa.int64()),
        ]
    ).empty_table()

    def _group(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy()
        irows = np.nonzero(side == 0)[0]
        trows = np.nonzero(side == 1)[0]
        if len(irows) == 0:
            return empty
        valid = None
        if len(trows):
            img = codec.decode(
                group["payload"][int(trows[0])].as_py(), group["fmt"][int(trows[0])].as_py()
            )
            if img.ndim == 2:
                img = img[:, :, None]
            valid = ~np.all(img == nodata, axis=-1)
        out = {k: [] for k in ("tile_id", "image_id", "feature_id", "mask", "mask_px")}
        for i in irows.tolist():
            m = codec.decode(group["payload"][i].as_py(), group["fmt"][i].as_py())
            if valid is not None:
                m = m * valid.astype(m.dtype)
            out["tile_id"].append(group["tile_id"][i].as_py())
            out["image_id"].append(group["image_id"][i].as_py())
            out["feature_id"].append(group["feature_id"][i].as_py())
            out["mask"].append(codec.encode(m, out_fmt))
            out["mask_px"].append(int((m > 0).sum()))
        return pa.table(
            {
                "tile_id": pa.array(out["tile_id"], pa.string()),
                "image_id": pa.array(out["image_id"], pa.string()),
                "feature_id": pa.array(out["feature_id"], pa.int64()),
                "mask": pa.array(out["mask"], pa.binary()),
                "mask_px": pa.array(out["mask_px"], pa.int64()),
            }
        )

    return co_shuffle(inst.union(tiles), "tile_id", per_key("tile_id", _group))
