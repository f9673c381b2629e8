"""Chipping/stitching, graph builder, preproc ops, exporters."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from solaris_ray.raster import codec
from solaris_ray.stages import chips, export, graph, preproc


def _img_row(img, iid="i0"):
    return pa.table(
        {
            "image_id": pa.array([iid]),
            "bytes": pa.array([codec.encode(img, "png")], pa.binary()),
            "w": pa.array([img.shape[1]], pa.int32()),
            "h": pa.array([img.shape[0]], pa.int32()),
            "fmt": pa.array(["png"]),
        }
    )


def test_chip_starts_edge_clamp():
    assert chips.chip_starts(100, 40, 40).tolist() == [0, 40, 60]
    assert chips.chip_starts(80, 40, 40).tolist() == [0, 40]
    assert chips.chip_starts(30, 40, 40).tolist() == [0]


def test_chip_stitch_roundtrip(ray_session):
    import ray

    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (100, 90, 3), dtype=np.uint8)
    ds = ray.data.from_arrow(_img_row(img))
    chipped = chips.cut_chips(ds, chip=40, step=30)
    out = chips.stitch(chipped, method="average").to_pandas()
    back = codec.decode(out.iloc[0]["bytes"], "png")
    # overlapping chips of identical content average to the original
    assert np.array_equal(back, img)
    # 'first' method also reproduces identical-content chips
    out_f = chips.stitch(chips.cut_chips(ray.data.from_arrow(_img_row(img)), 40, 30), method="first").to_pandas()
    assert np.array_equal(codec.decode(out_f.iloc[0]["bytes"], "png"), img)


ROADS = pa.table(
    {
        "feature_id": pa.array([0, 1], pa.int64()),
        "xs": pa.array([[0.0, 10.0, 20.0], [10.0, 10.0]], pa.list_(pa.float64())),
        "ys": pa.array([[0.0, 0.0, 5.0], [0.0, 8.0]], pa.list_(pa.float64())),
    }
)


def test_build_graph_dedups_shared_vertex(ray_session):
    import ray

    nodes_ds, edges = graph.build_graph(ray.data.from_arrow(ROADS))
    nodes = nodes_ds.to_pandas().sort_values("node_id")
    # 5 vertices, (10,0) shared between the two roads -> 4 nodes
    assert len(nodes) == 4
    # ids are the (x, y) sort rank
    assert nodes.sort_values(["x", "y"])["node_id"].tolist() == [0, 1, 2, 3]
    e = edges.to_pandas()
    assert len(e) == 3
    nm = {(x, y): i for i, x, y in zip(nodes["node_id"], nodes["x"], nodes["y"])}
    shared = nm[(10.0, 0.0)]
    assert ((e["u"] == shared) | (e["v"] == shared)).sum() == 3  # hub node touches all edges
    lengths = sorted(e["length"].tolist())
    assert np.allclose(lengths, sorted([10.0, np.hypot(10, 5), 8.0]))


def test_preproc_scales_and_bands():
    img = np.stack([np.full((4, 4), 10, np.uint8), np.full((4, 4), 200, np.uint8)], axis=2)
    mm = preproc.minmax_scale(img)
    assert mm.min() == 0.0 and mm.max() == 1.0
    z = preproc.zscore_scale(img)
    assert abs(z.mean()) < 1e-12
    assert preproc.select_bands(img, [1]).shape == (4, 4, 1)
    sw = preproc.swap_channels(img, 0, 1)
    assert (sw[:, :, 0] == 200).all()
    assert preproc.drop_channel(img, 0).shape == (4, 4, 1)


def test_hsv_roundtrip():
    rng = np.random.default_rng(4)
    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    back = preproc.hsv_to_rgb(preproc.rgb_to_hsv(img))
    assert np.abs(back.astype(int) - img.astype(int)).max() <= 1


def test_sar_ops_and_multilook():
    re = np.full((6, 6), 3.0)
    im = np.full((6, 6), 4.0)
    img = np.stack([re, im], axis=2)
    assert np.allclose(preproc.sar_amplitude(img), 5.0)
    assert np.allclose(preproc.sar_intensity(img), 25.0)
    assert np.allclose(preproc.sar_phase(img), np.arctan2(4, 3))
    db = preproc.sar_decibels(img)
    assert np.allclose(db, 10 * np.log10(25 + 1e-12))
    x = np.zeros((8, 8, 1))
    x[4, 4, 0] = 9.0
    ml = preproc.multilook(x, 3)
    assert np.isclose(ml[4, 4, 0], 1.0)  # 9 spread over 3x3


def test_image_ops_stage(ray_session):
    import ray

    rng = np.random.default_rng(8)
    img = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
    ds = ray.data.from_arrow(_img_row(img))
    out = preproc.apply_image_ops(
        ds, [(preproc.select_bands, {"bands": [0, 1]}), (preproc.swap_channels, {"a": 0, "b": 1})]
    ).to_pandas()
    back = codec.decode(out.iloc[0]["bytes"], "png")
    assert back.shape == (32, 32, 2)
    assert np.array_equal(back[:, :, 0], img[:, :, 1])


FEATS = pa.table(
    {
        "feature_id": pa.array([1, 2], pa.int64()),
        "image_id": pa.array(["i0", "i0"]),
        "class": pa.array(["building", "road"]),
        "xs": pa.array([[2.0, 12.0, 12.0, 2.0], [0.0, 60.0, 60.0, 0.0]], pa.list_(pa.float64())),
        "ys": pa.array([[2.0, 2.0, 10.0, 10.0], [0.0, 0.0, 40.0, 40.0]], pa.list_(pa.float64())),
    }
)


def test_coco_export(ray_session):
    import ray

    feats = ray.data.from_arrow(FEATS)
    imgs = ray.data.from_arrow(
        pa.table({"image_id": pa.array(["i0"]), "w": pa.array([64], pa.int32()), "h": pa.array([64], pa.int32())})
    )
    doc = export.build_coco_dict(feats, imgs)
    assert [c["name"] for c in doc["categories"]] == ["building", "road"]
    assert len(doc["annotations"]) == 2
    a = next(x for x in doc["annotations"] if x["id"] == 1)
    assert a["bbox"] == [2.0, 2.0, 10.0, 8.0]
    assert a["area"] == 80.0


def test_coco_shards_union_equals_single_doc(ray_session, tmp_path):
    import json

    import ray

    feats = ray.data.from_arrow(FEATS)
    imgs = ray.data.from_arrow(
        pa.table({"image_id": pa.array(["i0", "i1"]),
                  "w": pa.array([64, 32], pa.int32()),
                  "h": pa.array([64, 32], pa.int32())})
    )
    out = str(tmp_path / "coco")
    manifest = export.write_coco_shards(feats, imgs, out)
    assert manifest["n_images"] == 2
    shard_annos = []
    for p in manifest["annotation_shards"]:
        with open(p) as f:
            shard_annos.extend(json.loads(ln) for ln in f)
    single = export.build_coco_dict(
        ray.data.from_arrow(FEATS), imgs)
    assert sorted(shard_annos, key=lambda r: r["id"]) == \
        sorted(single["annotations"], key=lambda r: r["id"])
    with open(out + "/manifest.json") as f:
        assert json.load(f)["n_annotations"] == len(single["annotations"])


def test_yolo_export_min_overlap(ray_session):
    import ray

    feats = ray.data.from_arrow(FEATS)
    out = export.yolo_rows(feats, img_w=32, img_h=32, categories={"building": 0, "road": 1}).to_pandas()
    # road bbox (60x40) is mostly out of the 32x32 frame -> dropped
    assert len(out) == 1
    r = out.iloc[0]
    assert r["class_id"] == 0
    assert np.isclose(r["cx"], 7.0 / 32) and np.isclose(r["w"], 10.0 / 32)


def test_stitch_confidence_method(ray_session):
    import ray
    from solaris_ray.stages import chips as chips_stage

    # two overlapping chips with different values; confidence picks the
    # writer whose mean prob is farthest from 0.5 (255 -> |1-0.5|=0.5
    # beats 128 -> |0.502-0.5|~0)
    h = w = 40
    strong = np.full((h, w, 3), 255, dtype=np.uint8)
    weak = np.full((h, w, 3), 128, dtype=np.uint8)
    rows = []
    for (y0, x0, img) in ((0, 0, weak), (0, 0, strong)):
        rows.append(
            {"image_id": "c0", "y0": y0, "x0": x0, "w": w, "h": h, "fmt": "png",
             "bytes": codec.encode(img, "png")}
        )
    tbl = pa.Table.from_pylist(rows)
    out = chips_stage.stitch(ray.data.from_arrow(tbl), method="confidence").to_pandas()
    back = codec.decode(out.iloc[0]["bytes"], "png")
    assert (back == 255).all()


def test_stitch_confidence_per_channel():
    """Confidence picks a writer per [Y, X, C] (ADVICE.md, low: the
    reference argmaxes per channel, raster/image.py:141-150), not one
    writer per pixel from the channel mean: chip a is the more confident
    in R only, chip b in G and B (by mean, a would win every channel)."""
    from solaris_ray.stages import chips as chips_stage

    h = w = 8
    a = np.empty((h, w, 3), np.uint8)
    a[:] = (255, 128, 20)
    b = np.empty((h, w, 3), np.uint8)
    b[:] = (128, 10, 240)
    tbl = pa.Table.from_pylist([
        {"image_id": "c0", "y0": 0, "x0": 0, "w": w, "h": h, "fmt": "png",
         "bytes": codec.encode(img, "png")} for img in (a, b)
    ])
    out = chips_stage.stitch_group(tbl, method="confidence")
    back = codec.decode(out["bytes"][0].as_py(), "png")
    assert (back == np.array([255, 10, 240], np.uint8)).all()


def test_graph_to_geojson(ray_session):
    import json

    import ray

    nodes, edges = graph.build_graph(ray.data.from_arrow(ROADS))
    nj, ej = graph.graph_to_geojson(nodes, edges)
    nfc, efc = json.loads(nj), json.loads(ej)
    assert nfc["type"] == "FeatureCollection" and len(nfc["features"]) == 4
    assert len(efc["features"]) == 3
    # every edge linestring's endpoints are node coordinates
    node_coords = {tuple(f["geometry"]["coordinates"]) for f in nfc["features"]}
    for f in efc["features"]:
        a, b = f["geometry"]["coordinates"]
        assert tuple(a) in node_coords and tuple(b) in node_coords
        assert f["properties"]["length"] > 0


def test_write_graph_geojson_streams(ray_session, tmp_path):
    """Sharded sink writes valid FeatureCollections per block with no
    driver materialization (the graph module holds no to_pandas /
    take_all of the node or edge tables)."""
    import inspect
    import json

    import ray

    src = inspect.getsource(graph)
    assert "to_pandas" not in src and "take_all" not in src

    nodes, edges = graph.build_graph(ray.data.from_arrow(ROADS))
    manifest = graph.write_graph_geojson(nodes, edges, str(tmp_path)).to_pandas()
    assert set(manifest["kind"]) == {"nodes", "edges"}
    n_nodes = n_edges = 0
    node_coords = set()
    edge_rows = []
    for _, row in manifest.iterrows():
        doc = json.load(open(row["path"]))
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == row["n_features"]
        if row["kind"] == "nodes":
            n_nodes += len(doc["features"])
            node_coords |= {tuple(f["geometry"]["coordinates"])
                            for f in doc["features"]}
        else:
            n_edges += len(doc["features"])
            edge_rows += doc["features"]
    assert n_nodes == 4 and n_edges == 3
    for f in edge_rows:
        a, b = f["geometry"]["coordinates"]
        assert tuple(a) in node_coords and tuple(b) in node_coords


def test_hsl_roundtrip():
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (16, 16, 3), dtype=np.uint8)
    back = preproc.hsl_to_rgb(preproc.rgb_to_hsl(img))
    assert np.abs(back.astype(int) - img.astype(int)).max() <= 1


def test_crop_scale_mask_ops():
    img = np.arange(48, dtype=np.float64).reshape(4, 4, 3)
    c = preproc.crop(img, 1, 2, 2, 2)
    assert c.shape == (2, 2, 3) and c[0, 0, 0] == img[2, 1, 0]
    sc = preproc.scale_mult(img, 2.0)
    assert (sc == img * 2).all()
    bad = img.copy()
    bad[0, 0] = np.nan
    m = preproc.get_mask(bad)
    assert m[0, 0, 0] == 0 and m[1, 1, 0] == 1
    inv = preproc.invert_mask(m)
    assert inv[0, 0, 0] == 1 and inv[1, 1, 0] == 0
    filled = preproc.set_mask(img, m, flag=-1.0)
    assert filled[0, 0, 0] == -1.0 and filled[1, 1, 0] == img[1, 1, 0]


def test_multilook_complex_is_complex_mean():
    rng = np.random.default_rng(7)
    z = rng.normal(size=(8, 8, 1)) + 1j * rng.normal(size=(8, 8, 1))
    pairs = preproc._from_complex(z)
    ml = preproc.multilook_complex(pairs, 3)
    # center pixel = mean of the 3x3 complex neighborhood
    expect = z[3:6, 3:6, 0].mean()
    assert abs((ml[4, 4, 0] + 1j * ml[4, 4, 1]) - expect) < 1e-12
