"""Nodata filling — fill_all_nodata re-expressed.

Reference (/root/reference/solaris/tile/raster_tile.py:461-502): after
tiling, nodata pixels are filled with a constant or with the
channel-wise MEAN of the source image's valid pixels.

Ray mapping (SURVEY.md §2.2/§2.5): the mean variant is ONE
``groupby(image_id).map_groups`` co-shuffle — each group holds exactly
one image's tiles, the channel mean is computed inside the group from
its own valid pixels, and the fill happens in place.  No per-image
state ever reaches the driver (at 10^12 images a driver-side means
dict is exactly the scale-killer the north rule forbids), each tile's
bytes decode once, and group memory is bounded by one source image —
the same working set the reference's whole-image ``np.nanmean``
(raster_tile.py:479-483) touches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..raster import codec


def fill_nodata_constant(tiles, value: float, nodata: float = 0.0, fmt_col: str = "fmt"):
    """Constant fill: one stateless map_batches pass."""

    def _fill(batch: pa.Table) -> pa.Table:
        out = []
        for i in range(batch.num_rows):
            img = codec.decode(batch["bytes"][i].as_py(), batch[fmt_col][i].as_py())
            if img.ndim == 2:
                img = img[:, :, None]
            mask = np.all(img == nodata, axis=-1)
            img = img.copy()
            img[mask] = value
            out.append(codec.encode(img.squeeze(-1) if img.shape[2] == 1 else img, batch[fmt_col][i].as_py()))
        return batch.set_column(
            batch.schema.get_field_index("bytes"), "bytes", pa.array(out, pa.binary())
        )

    return tiles.map_batches(_fill, batch_format="pyarrow", batch_size=16)


def fill_nodata_mean(tiles, nodata: float = 0.0):
    """Mean fill: one co-shuffle, mean computed inside the image group.

    Mirrors raster_tile.py:479-483 (np.nanmean over the whole image,
    np.rint banker's rounding on write-back) computed distributed:
    ``groupby(image_id)`` co-locates an image's tiles, the group
    kernel accumulates valid-pixel channel sums/counts over its own
    rows, then fills each tile's nodata pixels with the image mean.
    Single pass, single decode per tile, zero driver-side state —
    the per-image means never leave the workers.
    """

    def _fill_group(group: pa.Table) -> pa.Table:
        fmts = group["fmt"].to_pylist()
        bufs = group["bytes"].to_pylist()
        imgs, masks = [], []
        sums: np.ndarray | None = None
        n_valid = 0
        for buf, fmt in zip(bufs, fmts):
            img = codec.decode(buf, fmt)
            if img.ndim == 2:
                img = img[:, :, None]
            mask = np.all(img == nodata, axis=-1)
            valid = ~mask
            s = img[valid].sum(axis=0).astype(np.float64)
            sums = s if sums is None else sums + s
            n_valid += int(valid.sum())
            imgs.append(img)
            masks.append(mask)
        mean = (sums / n_valid) if n_valid else sums * 0.0
        fill_px = np.clip(np.rint(mean), 0, 255)
        out = []
        for img, mask, fmt in zip(imgs, masks, fmts):
            if mask.any():
                img = img.copy()
                img[mask] = fill_px.astype(img.dtype)
            out.append(codec.encode(
                img.squeeze(-1) if img.shape[2] == 1 else img, fmt))
        return group.set_column(
            group.schema.get_field_index("bytes"), "bytes",
            pa.array(out, pa.binary()))

    return tiles.groupby("image_id").map_groups(
        _fill_group, batch_format="pyarrow")
