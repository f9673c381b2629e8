"""Nodata fill + match-key join tests."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from solaris_ray.raster import codec
from solaris_ray.stages import fill, matchkeys


def _tiles_tbl():
    rows = []
    for iid, base in (("a", 100), ("b", 40)):
        img = np.full((16, 16, 3), base, dtype=np.uint8)
        img[:8, :8] = 0  # nodata quarter
        rows.append(
            {"tile_id": f"{iid}_t", "image_id": iid, "bytes": codec.encode(img, "png"), "fmt": "png"}
        )
    return pa.Table.from_pylist(rows)


def test_fill_constant(ray_session):
    import ray

    out = fill.fill_nodata_constant(ray.data.from_arrow(_tiles_tbl()), value=7).to_pandas()
    img = codec.decode(out.iloc[0]["bytes"], "png")
    assert (img[:8, :8] == 7).all() and (img[8:, 8:] != 7).all()


def test_fill_mean_per_image(ray_session):
    import ray

    out = fill.fill_nodata_mean(ray.data.from_arrow(_tiles_tbl())).to_pandas().set_index("image_id")
    a = codec.decode(out.loc["a", "bytes"], "png")
    b = codec.decode(out.loc["b", "bytes"], "png")
    # each image's nodata quarter filled with ITS OWN valid-pixel mean
    assert (a[:8, :8] == 100).all()
    assert (b[:8, :8] == 40).all()


def test_extract_key_and_join(ray_session):
    import ray

    left = pa.table({"file": pa.array(["img_1.png", "img_2.png", "img_9.png"])})
    left = matchkeys.extract_key(left, "file", r"(?P<k>[0-9]+)")
    right = pa.table({"label": pa.array(["lbl_2.geojson", "lbl_1.geojson", "lbl_1_v2.geojson"])})
    right = matchkeys.extract_key(right, "label", r"(?P<k>[0-9]+)")
    out = (
        matchkeys.broadcast_equi_join(ray.data.from_arrow(left), right, concurrency=2)
        .to_pandas()
        .sort_values(["file", "label"])
    )
    # img_1 matches two labels (1:N fan-out); img_9 matches none
    assert out[["file", "label"]].values.tolist() == [
        ["img_1.png", "lbl_1.geojson"],
        ["img_1.png", "lbl_1_v2.geojson"],
        ["img_2.png", "lbl_2.geojson"],
    ]


def test_write_tile_geojsons(ray_session, tmp_path):
    import json

    import ray

    from solaris_ray.sources import synth
    from solaris_ray.stages import export, tiler
    from solaris_ray.stages.joins import spatial_join

    images, features = synth.gen_shard(np.arange(4), 4, seed=42, size=256)
    meta = images.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    specs = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128)
    joined = spatial_join(specs, features).materialize()
    out = export.write_tile_geojsons(
        tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128),
        joined, str(tmp_path / "vt"),
    ).to_pandas()
    # every planned tile got a file (16 tiles for 4 images of 256/128)
    assert len(out) == 16
    n_joined = joined.to_pandas().groupby("tile_id").size()
    for _, r in out.iterrows():
        doc = json.load(open(r["path"]))
        assert doc["type"] == "FeatureCollection"
        expect = int(n_joined.get(r["tile_id"], 0))
        assert len(doc["features"]) == expect == r["n_features"]
        if expect == 0:
            assert "crs" in doc  # empty-tile template (save_empty_geojson)
