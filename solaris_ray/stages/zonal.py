"""Zonal statistics — per-feature pixel aggregation (raster x vector).

The classic geospatial analytics op the north_star's "raster<->vector"
engine implies: for every vector feature, aggregate the pixel values
under its footprint across all tiles it touches.

Shape (SURVEY.md partial+final): per tile, rasterize each candidate
feature's clipped footprint onto the tile grid and emit PARTIAL
(feature_id, band sums, pixel count) rows — map-only over the tiles
stream with a broadcast feature index; then ``groupby(feature_id)``
sums the partials and a final map computes means.  Pixels never
shuffle; only tiny partial rows do.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geom import cells
from ..raster import codec
from ..raster.kernels import rasterize_rings
from .joins import FeaturePack, build_buckets


class ZonalPartials:
    """map_batches body: tile rows (with bytes) x broadcast features ->
    per-(feature, tile) partial sums."""

    def __init__(self, index_ref, cell_res: int):
        import ray

        obj = index_ref if isinstance(index_ref, tuple) else ray.get(index_ref)
        self.pack, self.buckets = obj
        self.cell_res = cell_res

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_fid, out_sums, out_cnt = [], [], []
        for i in range(batch.num_rows):
            x0 = float(batch["x0"][i].as_py())
            y0 = float(batch["y0"][i].as_py())
            x1 = float(batch["x1"][i].as_py())
            y1 = float(batch["y1"][i].as_py())
            tcells = cells.cover_bbox(x0, y0, x1, y1, self.cell_res)
            cand_lists = [self.buckets[c] for c in tcells.tolist() if c in self.buckets]
            if not cand_lists:
                continue
            cand = np.unique(np.concatenate(cand_lists))
            b = self.pack.bbox[cand]
            hit = (b[:, 0] < x1) & (b[:, 2] > x0) & (b[:, 1] < y1) & (b[:, 3] > y0)
            cand = cand[hit]
            if len(cand) == 0:
                continue
            img = codec.decode(batch["bytes"][i].as_py(), batch["fmt"][i].as_py())
            if img.ndim == 2:
                img = img[:, :, None]
            h, w = img.shape[:2]
            px = (x1 - x0) / w
            py = (y1 - y0) / h
            imgf = img.astype(np.float64)
            for fi in cand.tolist():
                ring = self.pack.ring(fi)
                # geo -> this tile's pixel space
                rx = (ring[:, 0] - x0) / px
                ry = (y1 - ring[:, 1]) / py
                m = rasterize_rings(
                    np.stack([rx, ry], axis=1), np.array([0, len(ring)]), (h, w), values=1
                ).astype(bool)
                n = int(m.sum())
                if n == 0:
                    continue
                out_fid.append(int(self.pack.feature_id[fi]))
                out_sums.append(imgf[m].sum(axis=0).tolist())
                out_cnt.append(n)
        return pa.table(
            {
                "feature_id": pa.array(out_fid, pa.int64()),
                "band_sums": pa.array(out_sums, pa.list_(pa.float64())),
                "n_px": pa.array(out_cnt, pa.int64()),
            }
        )


def zonal_stats(tiles, features: pa.Table, cell_res: int | None = None,
                batch_size: int = 8):
    """tiles Dataset (with bytes) x features -> per-feature band means.

    Returns (feature_id, n_px, mean_b0..mean_bN).
    """
    import ray

    from ..runtime import stateful_map

    if cell_res is None:
        cell_res = cells.choose_res(
            float(pc.min(features["minx"]).as_py()),
            float(pc.min(features["miny"]).as_py()),
            float(pc.max(features["maxx"]).as_py()),
            float(pc.max(features["maxy"]).as_py()),
            features.num_rows,
        )
    pack = FeaturePack.from_arrow(features)
    ref = ray.put((pack, build_buckets(pack, cell_res)))
    partials = stateful_map(
        tiles, ZonalPartials,
        {"index_ref": ref, "cell_res": cell_res},
        batch_size=batch_size,
    )

    def _combine(group: pa.Table) -> pa.Table:
        fid = group["feature_id"][0].as_py()
        sums = np.sum(np.asarray(group["band_sums"].to_pylist(), dtype=np.float64), axis=0)
        n = int(pc.sum(group["n_px"]).as_py())
        cols = {
            "feature_id": pa.array([fid], pa.int64()),
            "n_px": pa.array([n], pa.int64()),
        }
        for bi, s in enumerate(sums.tolist()):
            cols[f"mean_b{bi}"] = pa.array([s / n], pa.float64())
        return pa.table(cols)

    return partials.groupby("feature_id").map_groups(_combine, batch_format="pyarrow")
