"""restrict_to_aoi + instance-mask nodata zeroing
(solaris/tile/raster_tile.py:169-181, solaris/vector/mask.py:950-961)."""

import numpy as np
import pyarrow as pa

from solaris_ray.raster import codec
from solaris_ray.sources import synth
from solaris_ray.stages import masks as masks_stage
from solaris_ray.stages import tiler
from solaris_ray.stages.joins import spatial_join


def test_plan_tiles_aoi_restriction(ray_session):
    import ray

    images, _ = synth.gen_shard(np.arange(4), 4, seed=42, size=256)
    meta = images.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    full = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128).to_pandas()
    # AOI = first image's first tile bounds -> only intersecting tiles kept
    aoi = (full.iloc[0]["x0"], full.iloc[0]["y0"], full.iloc[0]["x1"], full.iloc[0]["y1"])
    sub = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128, aoi=aoi).to_pandas()
    assert 0 < len(sub) < len(full)
    # every kept tile intersects; every dropped one does not
    inter = (full["x0"] < aoi[2]) & (full["x1"] > aoi[0]) & (full["y0"] < aoi[3]) & (full["y1"] > aoi[1])
    assert set(sub["tile_id"]) == set(full.loc[inter, "tile_id"])


def test_cutter_aoi_nodata_masking(ray_session):
    import ray

    images, _ = synth.gen_shard(np.arange(1), 1, seed=7, size=128)
    row = images.to_pylist()[0]
    gx0, gy1 = row["gt_c"], row["gt_f"]  # origin (top-left), 0.5 m px
    # AOI covers only the LEFT half of the image
    aoi = (gx0, gy1 - 64.0, gx0 + 32.0, gy1)
    tiles = tiler.cut_tiles(
        ray.data.from_arrow(images), tile_size=128, aoi=aoi
    ).to_pandas()
    assert len(tiles) == 1
    img = codec.decode(tiles["bytes"][0], tiles["fmt"][0])
    # right half (outside AOI) must be nodata (0) in all bands
    assert (img[:, 64:] == 0).all()
    assert (img[:, :64] != 0).any()
    assert tiles["nodata_frac"][0] >= 0.5


def test_instance_nodata_zeroing(ray_session):
    import ray

    # image 200x200 -> 128-tiles include padded (nodata) regions
    images, features = synth.gen_shard(np.arange(4), 4, seed=42, size=200)
    meta = images.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    specs = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128)
    joined = spatial_join(specs, features)
    inst = masks_stage.instance_masks(joined, tile_size=128)
    tiles = tiler.cut_tiles(ray.data.from_arrow(images), tile_size=128)
    zeroed = masks_stage.zero_nodata_instances(inst, tiles).to_pandas()
    raw = inst.to_pandas()
    assert len(zeroed) == len(raw)
    merged = raw.merge(zeroed, on=["tile_id", "feature_id"], suffixes=("_raw", "_z"))
    # zeroing can only shrink masks, and must shrink at least one
    # instance that spills into a padded region
    assert (merged["mask_px_z"] <= merged["mask_px_raw"]).all()
    shrunk = merged[merged["mask_px_z"] < merged["mask_px_raw"]]
    for _, r in shrunk.iterrows():
        mz = codec.decode(r["mask_z"], "png")
        mr = codec.decode(r["mask_raw"], "png")
        assert ((mz > 0) <= (mr > 0)).all()


def test_instance_nodata_zeroing_constructed(ray_session):
    """Hand-built tile: right half all-bands nodata; an instance mask
    spanning both halves must lose exactly its right-half pixels."""
    import ray

    img = np.full((16, 16, 3), 77, dtype=np.uint8)
    img[:, 8:] = 0  # all-bands nodata region
    tiles = ray.data.from_arrow(pa.table(
        {"tile_id": pa.array(["t"], pa.string()),
         "image_id": pa.array(["i"], pa.string()),
         "bytes": pa.array([codec.encode(img, "png")], pa.binary()),
         "fmt": pa.array(["png"], pa.string())}
    ))
    inst_mask = np.zeros((16, 16), dtype=np.uint8)
    inst_mask[4:12, 4:12] = 255  # spans the nodata boundary
    inst = ray.data.from_arrow(pa.table(
        {"tile_id": pa.array(["t"], pa.string()),
         "image_id": pa.array(["i"], pa.string()),
         "feature_id": pa.array([1], pa.int64()),
         "mask": pa.array([codec.encode(inst_mask, "png")], pa.binary()),
         "mask_px": pa.array([64], pa.int64())}
    ))
    out = masks_stage.zero_nodata_instances(inst, tiles).to_pandas()
    assert len(out) == 1
    assert out["mask_px"][0] == 32  # right half zeroed
    m = codec.decode(out["mask"][0], "png")
    assert (m[:, 8:] == 0).all()
    assert (m[4:12, 4:8] > 0).all()
