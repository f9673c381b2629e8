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

Ray-Data mapping: after the spatial join, rows already carry
per-feature geo coords; ``_buckets.co_shuffle`` on ``tile_id``
co-locates a tile's features in one bucket, and ``tile_masks`` makes
the masks of every tile of the bucket in one call (SURVEY.md §2.9).
The shuffle is as wide as ``_buckets.shuffle_width`` says (the
session's CPUs, or the blocks the join's bytes fill when that is more),
never a fixed count; at width 1 it is one map task over the whole join,
with no tag and no sort.  Masks are emitted as PNG binary columns (wide
fixed lists would blow up block sizes): every mask the module writes as
PNG, the instance masks included, goes through
``codec.png_encode_masks``, one call per ``(n, h, w)`` stack, which
deflates each mask with ``Z_RLE`` and shares one stream between the
stack's all-zero masks.

The bucket kernel stacks ``CHUNK_PIXELS`` worth of whole tiles at a
time (8 tiles of 128 px) and works on each chunk as whole arrays:

- pixel coordinates come straight from the flattened ``xs``/``ys``
  list buffers of the bucket;
- one ``ring_spans`` call covers every footprint ring of the chunk;
  each span moves ``tile_slot * h`` rows down, and one ``span_cover``
  over a ``(tiles * h, w)`` grid gives every footprint;
- the boundary erodes (or dilates) the ``(tiles, h, w)`` stack, each
  tile edge-padded on its own;
- contact: one ``ring_convex`` test and one ``buffer_rings`` pass over
  every ring, one more span cover over the buffered convex rings; the
  rare concave ring is rasterized and dilated on its own;
- roads: one ``line_pixels`` pass over every centerline, one
  dilation of the stack.

The chunk bounds the kernel's memory, whatever the bucket's size.
Called with one tile's rows, ``tile_masks`` gives that tile's row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geom.poly import buffer_rings, ring_convex
from ..raster import codec
from ..raster.kernels import (
    dilate_square,
    erode_square,
    line_pixels,
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

# Pixels per chunk of stacked tiles: the bucket kernel's arrays grow
# with the tiles it stacks, so a bucket is masked a bounded chunk at a
# time (2^17 px: 8 tiles of 128 px, 32 of 64 px).
CHUNK_PIXELS = 1 << 17


def _packed_pixels(group: pa.Table, tile: np.ndarray, x0, y1, px, py):
    """Every row's ring in pixel space, straight from the flattened
    ``xs``/``ys`` list buffers: ``(coords, lens)``, row ``i`` owning
    ``lens[i]`` vertices.  Row ``i`` belongs to tile ``tile[i]``, whose
    affine is (px, 0, x0, 0, -py, y1): pixel col = (x-x0)/px, row =
    (y1-y)/py — the inverse of the save_tile georeferencing
    (raster_tile.py:440-447)."""
    xs = group["xs"].combine_chunks()
    ys = group["ys"].combine_chunks()
    lens = pc.fill_null(pc.list_value_length(xs), 0).to_numpy().astype(np.int64)
    ylens = pc.fill_null(pc.list_value_length(ys), 0).to_numpy()
    if not np.array_equal(lens, ylens):
        bad = int(np.argmax(lens != ylens))
        raise ValueError(f"tile {group['tile_id'][bad].as_py()!r}: a feature's xs and ys "
                         "differ in length")
    vt = np.repeat(tile, lens)
    cx = (xs.flatten().to_numpy(zero_copy_only=False).astype(np.float64) - x0[vt]) / px[vt]
    cy = (y1[vt] - ys.flatten().to_numpy(zero_copy_only=False).astype(np.float64)) / py[vt]
    return np.stack([cx, cy], axis=1), lens


def _pack(coords: np.ndarray, lens: np.ndarray, keep: np.ndarray):
    """The rings ``keep`` selects from packed ``(coords, lens)``, packed:
    ``(coords, offsets)``."""
    offsets = np.zeros(int(keep.sum()) + 1, dtype=np.int64)
    np.cumsum(lens[keep], out=offsets[1:])
    return coords[np.repeat(keep, lens)], offsets


def _cover(coords, offsets, slot, n_tiles: int, h: int, w: int) -> np.ndarray:
    """How many rings cover each pixel of each tile: one span table for
    every ring, each span moved ``slot[ring] * h`` rows down onto a
    ``(n_tiles * h, w)`` grid, then one ``span_cover``."""
    ring, row, xa, xb = ring_spans(coords, offsets, h, w)
    cover = span_cover(row + slot[ring] * h, xa, xb, (n_tiles * h, w))
    return cover.reshape(n_tiles, h, w)


def _chunk_masks(coords, lens, slot, poly, n_tiles: int, shape, boundary_width: int,
                 boundary_type: str, k: int, road_width: int, burn_value: int):
    """Footprint, boundary, contact and road masks of ``n_tiles`` tiles,
    each a ``(n_tiles, h, w)`` stack.  Row ``i`` (ring ``lens[i]``
    vertices of packed ``coords``) belongs to tile ``slot[i]``;
    ``poly`` marks the footprint rows, the rest are roads."""
    h, w = shape
    pcoords, poffsets = _pack(coords, lens, poly)
    pslot = slot[poly]
    footprint = np.zeros((n_tiles, h, w), dtype=np.uint8)
    footprint[_cover(pcoords, poffsets, pslot, n_tiles, h, w) > 0] = np.asarray(burn_value)

    # boundary_mask (:239-318): morphology XOR footprint
    fb = (footprint > 0).astype(np.uint8)
    if boundary_type == "inner":
        morphed = erode_square(fb, boundary_width)
    else:
        morphed = dilate_square(fb, boundary_width)
    boundary = ((morphed ^ fb) > 0).astype(np.uint8) * burn_value

    # contact_mask (:321-444): buffer each footprint by spacing/2;
    # contact = pixels covered by >= 2 buffered objects, minus
    # footprint pixels, so only tiles with two footprints take part.
    # Convex rings take the GEOMETRIC buffer (buffer_rings — closer to
    # the reference's shapely buffer than a square dilation), all
    # counted from one span table; the rare non-convex ring falls back
    # to pixel dilation.
    many = (np.bincount(pslot, minlength=n_tiles) >= 2)[pslot]
    convex = ring_convex(pcoords, poffsets)
    buffered = many & convex
    bcoords, boffsets = _pack(buffer_rings(pcoords, poffsets, float(k)), np.diff(poffsets), buffered)
    cover = _cover(bcoords, boffsets, pslot[buffered], n_tiles, h, w)
    for i in np.flatnonzero(many & ~convex).tolist():
        ring = pcoords[poffsets[i] : poffsets[i + 1]]
        one = rasterize_rings(ring, np.asarray([0, len(ring)]), shape, values=1)
        cover[pslot[i]] += dilate_square(one, 2 * k + 1)
    contact = ((cover >= 2) & (footprint == 0)).astype(np.uint8) * burn_value

    # road_mask (:447-564): centerline + width dilation
    rcoords, roffsets = _pack(coords, lens, ~poly)
    line, row, col = line_pixels(rcoords, roffsets, h, w)
    center = np.zeros((n_tiles, h, w), dtype=np.uint8)
    center[slot[~poly][line], row, col] = 1
    road = dilate_square(center, road_width).astype(np.uint8) * burn_value
    return footprint, boundary, contact, road


def _encode(stack: np.ndarray, out_fmt: str) -> list[bytes]:
    """One encoded mask per ``(h, w)`` plane of ``stack``: every binary
    mask the engine writes as PNG goes through ``codec.png_encode_masks``."""
    if out_fmt == "png":
        return codec.png_encode_masks(stack)
    return [codec.encode(m, out_fmt) for m in stack]


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
    """Joined rows of any number of tiles -> one mask row per tile,
    sorted by tile_id (the ``co_shuffle`` bucket kernel; one tile's rows
    give its one row).

    Expects columns: tile_id, image_id, class, xs, ys, x0, y0, x1, y1;
    a tile's bounds come from its first row.  Tiles are stacked
    ``CHUNK_PIXELS`` at a time and each chunk's masks are computed
    whole-array.  A NaN or infinite coordinate raises ``ValueError``
    naming the tile and its ring (the footprint's index among the tile's
    non-road rows) or its line (the road's index among its roads).
    """
    if group.num_rows == 0:
        return MASK_SCHEMA.empty_table()
    group = group.take(pc.sort_indices(group, [("tile_id", "ascending")]))
    tid = group["tile_id"].to_numpy()
    first = np.r_[0, np.flatnonzero(tid[1:] != tid[:-1]) + 1, len(tid)]
    lead = first[:-1]
    n_tiles = len(lead)
    tile = np.repeat(np.arange(n_tiles), np.diff(first))
    x0, y0, x1, y1 = (group[c].to_numpy().astype(np.float64)[lead] for c in ("x0", "y0", "x1", "y1"))
    px = (x1 - x0) / tile_size
    py = (y1 - y0) / tile_size
    coords, lens = _packed_pixels(group, tile, x0, y1, px, py)
    voff = np.r_[0, np.cumsum(lens)]
    poly = pc.fill_null(pc.not_equal(group["class"], "road"), True).to_numpy(zero_copy_only=False)
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        row = int(np.searchsorted(voff, np.argmin(finite), side="right")) - 1
        nth = int((poly[first[tile[row]] : row] == poly[row]).sum())
        raise ValueError(f"tile {tid[row]!r}: {'ring' if poly[row] else 'line'} {nth} "
                         "has a NaN or infinite coordinate")

    k = max(1, int(round(contact_spacing / 2)))
    shape = (tile_size, tile_size)
    per_chunk = max(1, CHUNK_PIXELS // (tile_size * tile_size))
    names = ("footprint", "boundary", "contact", "road")
    png = {name: [] for name in names}
    n_px = {name: [] for name in names}
    for c in range(0, n_tiles, per_chunk):
        r0, r1 = first[c], first[min(c + per_chunk, n_tiles)]
        stacks = _chunk_masks(
            coords[voff[r0] : voff[r1]], lens[r0:r1], tile[r0:r1] - c, poly[r0:r1],
            min(per_chunk, n_tiles - c), shape, boundary_width, boundary_type, k,
            road_width, burn_value)
        for name, m in zip(names, stacks):
            png[name] += _encode(m, out_fmt)
            n_px[name].append((m > 0).sum(axis=(1, 2)))
    return pa.table(
        {
            "tile_id": pc.cast(group["tile_id"].take(lead), pa.string()),
            "image_id": pc.cast(group["image_id"].take(lead), pa.string()),
            "n_features": pa.array(np.diff(first), pa.int64()),
            **{name: pa.array(png[name], pa.binary()) for name in names},
            **{f"{name}_px": pa.array(np.concatenate(n_px[name]), pa.int64()) for name in names},
        },
        schema=MASK_SCHEMA,
    )


def masks_from_join(joined, tile_size: int = 128, n_buckets: int | None = None, **kwargs):
    """tile_features Dataset -> masks Dataset (one row per tile).

    The join output must carry tile bounds; if it doesn't, join them
    back by tile_id first.  ``co_shuffle`` on ``tile_id`` brings all
    rows of a tile into one bucket and ``tile_masks`` makes every
    tile's masks in one call per bucket.  ``n_buckets`` (the shuffle's
    block count) defaults to ``_buckets.shuffle_width(joined)``.
    """
    return co_shuffle(
        joined, "tile_id",
        lambda bucket: tile_masks(bucket, tile_size=tile_size, **kwargs),
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
    granularity is blocks, not batches).  Each batch's masks are
    rasterized into one stack and encoded in one call."""
    joined = joined.repartition(shuffle_width(joined))

    def _one(batch: pa.Table) -> pa.Table:
        x0, y0, x1, y1 = (batch[c].to_numpy().astype(np.float64) for c in ("x0", "y0", "x1", "y1"))
        coords, lens = _packed_pixels(batch, np.arange(batch.num_rows), x0, y1,
                                      (x1 - x0) / tile_size, (y1 - y0) / tile_size)
        voff = np.r_[0, np.cumsum(lens)]
        stack = np.zeros((batch.num_rows, tile_size, tile_size), dtype=np.uint8)
        for i, (a, b) in enumerate(zip(voff[:-1].tolist(), voff[1:].tolist())):
            stack[i] = rasterize_rings(coords[a:b], np.asarray([0, b - a]),
                                       (tile_size, tile_size), values=burn_value)
        return pa.table(
            {
                "tile_id": pc.cast(batch["tile_id"], pa.string()),
                "image_id": pc.cast(batch["image_id"], pa.string()),
                "feature_id": pc.cast(batch["feature_id"], pa.int64()),
                "mask": pa.array(_encode(stack, out_fmt), pa.binary()),
                "mask_px": pa.array((stack > 0).sum(axis=(1, 2)), pa.int64()),
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
        inst = group.take(irows)
        stack = np.stack([codec.decode(p, f) for p, f in
                          zip(inst["payload"].to_pylist(), inst["fmt"].to_pylist())])
        if valid is not None:
            stack = stack * valid.astype(stack.dtype)
        return pa.table(
            {
                "tile_id": pc.cast(inst["tile_id"], pa.string()),
                "image_id": pc.cast(inst["image_id"], pa.string()),
                "feature_id": pc.cast(inst["feature_id"], pa.int64()),
                "mask": pa.array(_encode(stack, out_fmt), pa.binary()),
                "mask_px": pa.array((stack > 0).sum(axis=(1, 2)), pa.int64()),
            }
        )

    return co_shuffle(inst.union(tiles), "tile_id", per_key("tile_id", _group))
