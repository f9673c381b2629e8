"""Sliding-window chipping + stitching — the inference data path.

Reference (/root/reference/solaris):

- ``InferenceTiler`` (nets/datagen.py:369-497): sliding window with
  x_step/y_step, edge-clamped starts, returns [N,Y,X,C] + top-left
  index refs.
- ``Inferer.__call__`` (nets/infer.py:65-109): chips -> model forward
  -> ``stitch_images``.
- ``stitch_images`` (raster/image.py:38-154): reassemble chips by
  index refs; methods 'average' (nanmean of overlaps), 'first'
  (first writer wins), 'confidence' (max |p - 0.5| wins).

Ray mapping (SURVEY.md §3.3): images -> ``map_batches`` chip fan-out
(1 row -> N chip rows with (y0, x0) columns) -> scorer map stage ->
``groupby(image_id).map_groups(stitch)``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..raster import codec


def chip_starts(size: int, chip: int, step: int) -> np.ndarray:
    """Edge-clamped sliding-window starts (datagen.py:441-452): last
    window is shifted back so it ends exactly at the image edge."""
    if size <= chip:
        return np.asarray([0], dtype=np.int64)
    s = np.arange(0, size - chip + 1, step, dtype=np.int64)
    if s[-1] != size - chip:
        s = np.append(s, size - chip)
    return s


class ChipCutter:
    """map_batches body: image rows -> chip rows (1 -> N fan-out)."""

    def __init__(self, chip: int = 128, step: int | None = None, out_fmt: str = "png"):
        self.chip = chip
        self.step = step or chip
        self.out_fmt = out_fmt

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"image_id": [], "y0": [], "x0": [], "w": [], "h": [], "fmt": [], "bytes": []}
        for i in range(batch.num_rows):
            img = codec.decode(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            if img.ndim == 2:
                img = img[:, :, None]
            h, w = img.shape[:2]
            iid = batch["image_id"][i].as_py()
            for ys in chip_starts(h, self.chip, self.step):
                for xs in chip_starts(w, self.chip, self.step):
                    sub = img[ys : ys + self.chip, xs : xs + self.chip]
                    out["image_id"].append(iid)
                    out["y0"].append(int(ys))
                    out["x0"].append(int(xs))
                    out["w"].append(w)
                    out["h"].append(h)
                    out["fmt"].append(self.out_fmt)
                    out["bytes"].append(
                        codec.encode(sub.squeeze(-1) if sub.shape[2] == 1 else sub, self.out_fmt)
                    )
        return pa.table(
            {
                "image_id": pa.array(out["image_id"], pa.string()),
                "y0": pa.array(out["y0"], pa.int32()),
                "x0": pa.array(out["x0"], pa.int32()),
                "w": pa.array(out["w"], pa.int32()),
                "h": pa.array(out["h"], pa.int32()),
                "fmt": pa.array(out["fmt"], pa.string()),
                "bytes": pa.array(out["bytes"], pa.binary()),
            }
        )


def cut_chips(images, chip: int = 128, step: int | None = None):
    return images.map_batches(ChipCutter(chip, step), batch_format="pyarrow", batch_size=4)


def stitch_group(group: pa.Table, method: str = "average", fmt: str = "png") -> pa.Table:
    """One image's chip rows -> the reassembled image row.

    stitch_images semantics (raster/image.py:80-137): 'average' =
    nanmean over overlapping writers; 'first' = first chip (in (y0,x0)
    order) wins; 'confidence' = per-pixel, per-channel writer with max
    |p - 0.5| (probabilities scaled to [0,1] from uint8; the reference
    argmaxes confidence over [Y, X, C], raster/image.py:141-150).
    """
    image_id = group["image_id"][0].as_py()
    h = int(group["h"][0].as_py())
    w = int(group["w"][0].as_py())
    order = np.lexsort(
        (group["x0"].to_numpy(), group["y0"].to_numpy())
    )  # deterministic writer order (sorted-filename analogue made explicit)
    first = codec.decode(group["bytes"][int(order[0])].as_py(), fmt)
    ch = 1 if first.ndim == 2 else first.shape[2]
    acc = np.zeros((h, w, ch), dtype=np.float64)
    cnt = np.zeros((h, w, 1), dtype=np.float64)
    conf = np.full((h, w, ch), -1.0)
    for oi in order.tolist():
        img = codec.decode(group["bytes"][oi].as_py(), fmt).astype(np.float64)
        if img.ndim == 2:
            img = img[:, :, None]
        y0 = int(group["y0"][oi].as_py())
        x0 = int(group["x0"][oi].as_py())
        ys, xs = slice(y0, y0 + img.shape[0]), slice(x0, x0 + img.shape[1])
        if method == "average":
            acc[ys, xs] += img
            cnt[ys, xs] += 1.0
        elif method == "first":
            m = cnt[ys, xs, 0] == 0
            acc[ys, xs][m] = img[m]
            cnt[ys, xs, 0][m] = 1.0
        elif method == "confidence":
            c = np.abs(img / 255.0 - 0.5)
            m = c > conf[ys, xs]
            acc[ys, xs][m] = img[m]
            conf[ys, xs][m] = c[m]
        else:
            raise ValueError(f"unknown stitch method {method!r}")
    if method == "average":
        full = np.where(cnt > 0, acc / np.maximum(cnt, 1.0), 0.0)
    else:
        full = acc
    arr = np.clip(np.rint(full), 0, 255).astype(np.uint8)
    return pa.table(
        {
            "image_id": pa.array([image_id], pa.string()),
            "w": pa.array([w], pa.int32()),
            "h": pa.array([h], pa.int32()),
            "fmt": pa.array([fmt], pa.string()),
            "bytes": pa.array(
                [codec.encode(arr.squeeze(-1) if arr.shape[2] == 1 else arr, fmt)], pa.binary()
            ),
        }
    )


def stitch(chips, method: str = "average", fmt: str = "png"):
    """chips Dataset -> images Dataset via groupby(image_id) reassembly."""
    return chips.groupby("image_id").map_groups(
        lambda g: stitch_group(g, method, fmt), batch_format="pyarrow"
    )
