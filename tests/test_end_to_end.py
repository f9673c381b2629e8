"""Full-loop integration: vector -> raster -> vector -> eval.

corpus features -> clip join -> per-feature instance masks ->
polygonize -> pixel->geo transform -> greedy IoU eval against the
ORIGINAL footprints.  Closing the raster<->vector loop proves the
tiler/join/mask/polygonize/eval stages compose coherently: every
recovered polygon must re-match its own source feature.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from solaris_ray.sources.synth import gen_shard
from solaris_ray.stages import evaluate, masks, polygonize, tiler
from solaris_ray.stages.joins import spatial_join


def test_vector_raster_vector_roundtrip(ray_session):
    import ray

    n = 6
    imgs, feats = gen_shard(np.arange(n), n, seed=42, size=256)
    meta = imgs.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    # 256-px tiles => one tile per image => no cross-tile fragmentation
    specs = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=256)
    joined = spatial_join(specs, feats)
    buildings_joined = joined.filter(lambda r: r["class"] == "building")
    inst = masks.instance_masks(buildings_joined, tile_size=256)

    # mask rows -> polygon rows (per feature, so components stay 1:1)
    polys = polygonize.masks_to_polygons(inst, mask_col="mask", min_area=4.0)
    poly_df = polys.to_pandas()
    inst_df = inst.to_pandas()
    assert len(poly_df) >= len(inst_df) * 0.98  # each instance recovers a polygon

    # pixel-corner rings -> geo (tile affine: px=0.5 origin from tile_id's image)
    img_meta = {r["image_id"]: r for r in meta.to_pylist()}
    tile_bounds = {}
    for r in ray.data.from_arrow(meta).map_batches(
        lambda b: tiler.plan_tiles(b, 256), batch_format="pyarrow"
    ).take_all():
        tile_bounds[r["tile_id"]] = r

    feats_b = feats.filter(pa.compute.equal(feats["class"], "building"))
    gt_rows = feats_b.to_pylist()

    prop_rows = []
    # polygonize output lost the feature id linkage through tile_id; match
    # per tile: every polygon becomes a proposal on its image
    inst_by_tile = {}
    for _, r in inst_df.iterrows():
        inst_by_tile.setdefault(r["tile_id"], r["image_id"])
    for i, r in poly_df.iterrows():
        tb = tile_bounds[r["tile_id"]]
        px = (tb["x1"] - tb["x0"]) / 256.0
        xs = (np.asarray(r["xs"]) * px + tb["x0"]).tolist()
        ys = (tb["y1"] - np.asarray(r["ys"]) * px).tolist()
        prop_rows.append(
            {
                "proposal_id": int(i),
                "image_id": inst_by_tile[r["tile_id"]],
                "class": "building",
                "xs": xs,
                "ys": ys,
                "conf": 1.0,
            }
        )
    pr_schema = pa.schema(
        [("proposal_id", pa.int64()), ("image_id", pa.string()), ("class", pa.string()),
         ("xs", pa.list_(pa.float64())), ("ys", pa.list_(pa.float64())), ("conf", pa.float64())]
    )
    gt_schema = pa.schema(
        [("feature_id", pa.int64()), ("image_id", pa.string()), ("class", pa.string()),
         ("xs", pa.list_(pa.float64())), ("ys", pa.list_(pa.float64()))]
    )
    gt_tbl = pa.Table.from_pylist(
        [{k: r[k] for k in ("feature_id", "image_id", "class", "xs", "ys")} for r in gt_rows],
        schema=gt_schema,
    )
    scores = evaluate.eval_scores(
        ray.data.from_arrow(pa.Table.from_pylist(prop_rows, schema=pr_schema)),
        ray.data.from_arrow(gt_tbl),
        miniou=0.5,
    ).to_pandas()
    tp, fp, fn = scores["tp"].sum(), scores["fp"].sum(), scores["fn"].sum()
    recall = tp / (tp + fn)
    precision = tp / (tp + fp)
    # rasterize->trace pixelization keeps IoU >> 0.5 for every feature
    assert recall >= 0.95, (tp, fp, fn)
    assert precision >= 0.95, (tp, fp, fn)
