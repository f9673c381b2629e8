"""Per-layer kernel timings: direct in-process calls, no Ray.

Each kernel runs on a small seeded sample (the same seed gives the same
sample) until it has run at least ``MIN_REPEATS`` times and ``MIN_S``
seconds; the median call time is divided by the work the call did.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from solaris_ray.geom.poly import polygon_iou
from solaris_ray.raster import codec
from solaris_ray.raster.kernels import rasterize_rings
from solaris_ray.sources import synth
from solaris_ray.stages import evaluate, joins, masks, polygonize, tiler
from solaris_ray.state.manifest import content_checksum

from layerbench.corpus import rings, stratified_indices

N_IMAGES = 8
MIN_REPEATS = 5
MIN_S = 0.2


def _per_unit(fn, units: float) -> float:
    times: list[float] = []
    while len(times) < MIN_REPEATS or sum(times) < MIN_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / units


def kernel_metrics(seed: int, work_dir: str) -> dict:
    """One number per kernel, keyed by its per-layer metric name."""
    images, feats = synth.gen_shard(stratified_indices(N_IMAGES, seed), N_IMAGES, seed, 256)
    bufs = images["bytes"].to_pylist()
    fmts = images["fmt"].to_pylist()
    arrays = [codec.decode(b, f) for b, f in zip(bufs, fmts)]
    mpx = sum(a.shape[0] * a.shape[1] for a in arrays) / 1e6
    out = {
        "raster.decode_ms_per_mpx": 1e3 * _per_unit(
            lambda: [codec.decode(b, f) for b, f in zip(bufs, fmts)], mpx),
        "raster.encode_ms_per_mpx": 1e3 * _per_unit(
            lambda: [codec.encode(a, f) for a, f in zip(arrays, fmts)], mpx),
    }

    # pixel-space building rings of every image, burned into a 256 px frame
    buildings = feats.filter(pc.equal(feats["class"], "building"))
    gt_c = dict(zip(images["image_id"].to_pylist(), images["gt_c"].to_pylist()))
    gt_f = dict(zip(images["image_id"].to_pylist(), images["gt_f"].to_pylist()))
    ids = buildings["image_id"].to_pylist()
    px = [np.stack([(r[:, 0] - gt_c[i]) / synth.PX, (gt_f[i] - r[:, 1]) / synth.PX], axis=1)
          for r, i in zip(rings(buildings), ids)]
    coords = np.concatenate(px)
    offsets = np.cumsum([0] + [len(r) for r in px]).astype(np.int64)
    out["raster.rasterize_us_per_ring"] = 1e6 * _per_unit(
        lambda: rasterize_rings(coords, offsets, (256, 256)), len(px))

    geo = rings(buildings)
    shifted = [r + np.array([2.0, 1.0]) for r in geo]
    out["geom.iou_us_per_pair"] = 1e6 * _per_unit(
        lambda: [polygon_iou(a, b) for a, b in zip(geo, shifted)], len(geo))

    cutter = tiler.TileCutter(tile_size=128, encode_level=0)
    out["tiler.cut_ms_per_image"] = 1e3 * _per_unit(lambda: cutter(images), N_IMAGES)

    specs = tiler.plan_tiles(images.drop_columns(["bytes"]), 128)
    pack, buckets, res = joins.build_join_index(feats)
    joined = joins.join_tile_batch_to_pack(specs, pack, buckets, res, 0.0)
    out["joins.clip_us_per_row"] = 1e6 * _per_unit(
        lambda: joins.join_tile_batch_to_pack(specs, pack, buckets, res, 0.0), joined.num_rows)

    joined = joined.sort_by("tile_id")
    tids = np.asarray(joined["tile_id"].to_pylist(), object)
    starts = np.flatnonzero(np.r_[True, tids[1:] != tids[:-1]]).tolist() + [len(tids)]
    groups = [joined.slice(a, b - a) for a, b in zip(starts[:-1], starts[1:])]
    out["masks.tile_ms"] = 1e3 * _per_unit(
        lambda: [masks.tile_masks(g) for g in groups], len(groups))

    mask_tbl = pa.concat_tables([masks.tile_masks(g) for g in groups])
    polygonizer = polygonize.MaskPolygonizer(mask_col="footprint")
    out["polygonize.ms_per_tile"] = 1e3 * _per_unit(
        lambda: polygonizer(mask_tbl), mask_tbl.num_rows)

    props = synth.gen_proposals(feats, seed)
    per_image = []
    for image_id in images["image_id"].to_pylist():
        p = props.filter(pc.equal(props["image_id"], image_id))
        g = buildings.filter(pc.equal(buildings["image_id"], image_id))
        per_image.append((p["proposal_id"].to_numpy(), p["conf"].to_numpy(), rings(p),
                          g["feature_id"].to_numpy(), rings(g)))
    out["evaluate.match_ms_per_image"] = 1e3 * _per_unit(
        lambda: [evaluate.greedy_match_group(*args) for args in per_image], N_IMAGES)

    part = os.path.join(work_dir, "checksum")
    os.makedirs(part, exist_ok=True)
    pq.write_table(joined.drop_columns(["xs", "ys"]), os.path.join(part, "part-0.parquet"))
    out["manifest.checksum_ms_per_krow"] = 1e3 * _per_unit(
        lambda: content_checksum(part), joined.num_rows / 1e3)
    return out
