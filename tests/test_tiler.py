"""Corpus generation + raster tiler tests.

Mirrors the reference tiling test style
(/root/reference/tests/test_tile/test_tile.py: tile a known image,
check every tile's pixels) but against our deterministic synthetic
corpus: tiles must slice back to exactly the decoded source pixels
(lossless) or within PSNR >= 40 dB (lossy), and captions must be
byte-equal per row.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solaris_ray.geom import cells
from solaris_ray.geom.affine import Affine, apply_affine, invert_affine
from solaris_ray.geom.crs import projection_unit
from solaris_ray.raster import codec
from solaris_ray.raster.kernels import rasterize_rings
from solaris_ray.raster.warp import calculate_default_transform, crs_transformer, warp_affine
from solaris_ray.sources.synth import gen_image, gen_proposals, gen_shard
from solaris_ray.stages.tiler import TILE_SCHEMA, TileCutter, plan_tiles, tile_grid_counts


class TestSynth:
    def test_deterministic(self):
        r1, f1 = gen_image(3, 16, seed=42, size=64)
        r2, f2 = gen_image(3, 16, seed=42, size=64)
        assert r1["bytes"] == r2["bytes"]
        assert r1["caption"] == r2["caption"]
        assert [f["wkt_pix"] for f in f1] == [f["wkt_pix"] for f in f2]

    def test_shard_split_invariant(self):
        """Generating [0..8) in one shard == two shards of 4 — the
        property that makes 10^12-image generation embarrassingly
        parallel."""
        a_img, a_feat = gen_shard(np.arange(8), 8, 42, size=64)
        b1, f1 = gen_shard(np.arange(4), 8, 42, size=64)
        b2, f2 = gen_shard(np.arange(4, 8), 8, 42, size=64)
        assert a_img.equals(pa.concat_tables([b1, b2]))
        assert a_feat.equals(pa.concat_tables([f1, f2]))

    def test_phash_duplicates_planted(self):
        imgs, _ = gen_shard(np.arange(40), 40, 42, size=64)
        ph = imgs["phash"].to_pylist()
        assert ph[17] == ph[16] and ph[34] == ph[33]

    def test_decode_roundtrip_and_psnr(self):
        imgs, _ = gen_shard(np.arange(4), 4, 42, size=64)
        for row in imgs.to_pylist():
            arr = codec.decode(row["bytes"], row["fmt"])
            assert arr.shape == (row["h"], row["w"], 3)

    def test_proposals(self):
        _, feats = gen_shard(np.arange(6), 6, 42, size=64)
        props = gen_proposals(feats, seed=42)
        assert props.num_rows > 0
        assert set(props.column_names) == {
            "proposal_id", "image_id", "class", "xs", "ys", "conf",
        }


class TestPlanTiles:
    def test_grid_counts(self):
        nx, ny = tile_grid_counts(np.array([256, 300]), np.array([256, 100]), 128)
        assert nx.tolist() == [2, 3] and ny.tolist() == [2, 1]

    def test_plan_matches_cut(self):
        imgs, _ = gen_shard(np.arange(3), 3, 42, size=200)  # 200/128 → 2x2 padded
        plan = plan_tiles(imgs, tile_size=128)
        cut = TileCutter(tile_size=128)(imgs)
        assert plan.num_rows == cut.num_rows == 3 * 4
        assert plan["tile_id"].to_pylist() == cut["tile_id"].to_pylist()
        for col in ("x0", "y0", "x1", "y1", "cell"):
            assert plan[col].to_pylist() == cut[col].to_pylist(), col


class TestTileCutter:
    def test_pixels_roundtrip(self):
        imgs, _ = gen_shard(np.arange(2), 2, 42, size=256)
        tiles = TileCutter(tile_size=128)(imgs)
        src = {
            r["image_id"]: codec.decode(r["bytes"], r["fmt"])
            for r in imgs.to_pylist()
        }
        fmts = dict(zip(imgs["image_id"].to_pylist(), imgs["fmt"].to_pylist()))
        for t in tiles.to_pylist():
            want = src[t["image_id"]][
                t["row"] * 128 : (t["row"] + 1) * 128,
                t["col"] * 128 : (t["col"] + 1) * 128,
            ]
            got = codec.decode(t["bytes"], t["fmt"])
            if fmts[t["image_id"]] == "png":
                assert np.array_equal(got, want)
            else:
                assert codec.psnr(got, want) >= 40.0

    def test_caption_byte_equal(self):
        imgs, _ = gen_shard(np.arange(2), 2, 42, size=256)
        tiles = TileCutter(tile_size=128)(imgs)
        caps = dict(zip(imgs["image_id"].to_pylist(), imgs["caption"].to_pylist()))
        for t in tiles.to_pylist():
            assert t["caption"] == caps[t["image_id"]]

    def test_edge_padding_and_nodata_frac(self):
        imgs, _ = gen_shard(np.arange(1), 1, 42, size=200)
        tiles = TileCutter(tile_size=128)(imgs)
        by_rc = {(t["col"], t["row"]): t for t in tiles.to_pylist()}
        corner = by_rc[(1, 1)]
        arr = codec.decode(corner["bytes"], corner["fmt"])
        assert arr.shape[:2] == (128, 128)
        # padded region is nodata=0 on all bands
        assert (arr[72:, :, :] == 0).all() and (arr[:, 72:, :] == 0).all()
        assert corner["nodata_frac"] >= 1.0 - (72 * 72) / (128 * 128) - 1e-9

    def test_nodata_threshold_filter(self):
        imgs, _ = gen_shard(np.arange(1), 1, 42, size=200)
        kept = TileCutter(tile_size=128, nodata_threshold=0.5)(imgs)
        allt = TileCutter(tile_size=128)(imgs)
        dropped = allt.num_rows - kept.num_rows
        assert dropped == sum(
            1 for t in allt.to_pylist() if t["nodata_frac"] >= 0.5
        )


@pytest.mark.usefixtures("ray_session")
class TestTilerOnRay:
    def test_cut_tiles_dataset(self):
        import ray.data as rd

        from solaris_ray.stages.tiler import cut_tiles, plan_tiles_ds

        imgs, _ = gen_shard(np.arange(6), 6, 42, size=256)
        ds = rd.from_arrow(imgs)
        tiles = cut_tiles(ds, tile_size=128)
        plan = plan_tiles_ds(ds, tile_size=128)
        assert tiles.count() == plan.count() == 6 * 4
        got = tiles.take_all()
        assert {t["tile_id"] for t in got} == set(
            plan.to_pandas()["tile_id"].tolist()
        )


def reference_cut(cutter: TileCutter, batch: pa.Table) -> pa.Table:
    """The per-tile cutter loop that the whole-image TileCutter replaced:
    one reduction, one cell lookup and one name per tile."""
    ts = cutter.tile_size
    out: dict[str, list] = {name: [] for name in TILE_SCHEMA.names}
    n = batch.num_rows
    cols = {name: batch[name] for name in batch.column_names}
    for i in range(n):
        fmt = cols["fmt"][i].as_py()
        buf = cols["bytes"][i].as_py()
        img = codec.decode(buf, fmt)
        if img.ndim == 2:
            img = img[:, :, None]
        h, w = img.shape[:2]
        nodata = cols["nodata"][i].as_py() if "nodata" in cols else 0.0
        t = Affine(*(cols[f"gt_{k}"][i].as_py() for k in ("a", "b", "c", "d", "e", "f")))
        image_id = cols["image_id"][i].as_py()
        caption = cols["caption"][i].as_py()
        out_fmt = cutter.out_fmt or fmt
        if cutter.aoi is not None:
            inv = invert_affine(t)
            pxs, pys = apply_affine(inv, cutter.aoi[:, 0], cutter.aoi[:, 1])
            ring = np.stack([pxs, pys], axis=1)
            inside = rasterize_rings(ring, np.asarray([0, len(ring)]), (h, w), values=1)
            img = img.copy()
            img[inside == 0] = nodata
        nx = -(-w // ts)
        ny = -(-h // ts)
        for col in range(nx):
            for row in range(ny):
                xs, ys = col * ts, row * ts
                tile = img[ys : ys + ts, xs : xs + ts]
                if tile.shape[0] < ts or tile.shape[1] < ts:
                    full = np.full((ts, ts, img.shape[2]), nodata, dtype=img.dtype)
                    full[: tile.shape[0], : tile.shape[1]] = tile
                    tile = full
                nodata_frac = float(np.mean(np.all(tile == nodata, axis=-1)))
                if cutter.nodata_threshold is not None and nodata_frac >= cutter.nodata_threshold:
                    continue
                src_epsg = int(cols["epsg"][i].as_py()) if "epsg" in cols else None
                if cutter.dest_epsg is not None and src_epsg is not None and src_epsg != cutter.dest_epsg:
                    tile_t = Affine(
                        t.a, t.b, t.c + xs * t.a + ys * t.b,
                        t.d, t.e, t.f + xs * t.d + ys * t.e,
                    )
                    fwd, inv = crs_transformer(src_epsg, cutter.dest_epsg)
                    dst_t, dw, dh = calculate_default_transform(tile_t, ts, ts, fwd)
                    tile = warp_affine(
                        tile, tile_t, dst_t, (dh, dw), cutter.resampling, nodata, inv_fn=inv
                    )
                    if tile.ndim == 2:
                        tile = tile[:, :, None]
                    gx0, gy1 = dst_t.c, dst_t.f
                    gx1 = dst_t.c + dw * dst_t.a
                    gy0 = dst_t.f + dh * dst_t.e
                    metric = projection_unit(cutter.dest_epsg) != "degree"
                else:
                    gx0 = t.c + xs * t.a
                    gx1 = t.c + (xs + ts) * t.a
                    gy0 = t.f + ys * t.e
                    gy1 = t.f + (ys + ts) * t.e
                    metric = projection_unit(src_epsg) != "degree" if src_epsg is not None else True
                minx, maxx = min(gx0, gx1), max(gx0, gx1)
                miny, maxy = min(gy0, gy1), max(gy0, gy1)
                cell = int(cells.cell_of_point(
                    np.array([(minx + maxx) * 0.5]), np.array([(miny + maxy) * 0.5]), cutter.cell_res
                )[0])
                out["tile_id"].append(
                    f"{image_id}_{int(round(minx))}_{int(round(miny))}"
                    if metric
                    else f"{image_id}_{round(minx, 3)}_{round(miny, 3)}"
                )
                for k, v in (("image_id", image_id), ("cell", cell), ("col", col), ("row", row),
                             ("x0", minx), ("y0", miny), ("x1", maxx), ("y1", maxy),
                             ("w", tile.shape[1]), ("h", tile.shape[0]), ("fmt", out_fmt),
                             ("nodata_frac", nodata_frac), ("caption", caption)):
                    out[k].append(v)
                out["bytes"].append(codec.encode(
                    tile.squeeze(-1) if tile.shape[2] == 1 else tile, out_fmt, cutter.encode_level
                ))
    return pa.table({f.name: pa.array(out[f.name], f.type) for f in TILE_SCHEMA})


UTM = (32616, 733601.0, 3725139.0, 0.5)  # epsg, west, north, pixel size
DEG = (4326, -122.4, 37.8, 1e-5)


def _image(rng, h, w, bands, nodata=0.0, holes=0):
    """Random pixels avoiding ``nodata``, plus ``holes`` nodata blocks:
    even ones in every band, odd ones in band 0 only."""
    img = rng.integers(1, 255, (h, w, bands), dtype=np.uint8)
    img[img == nodata] = (int(nodata) + 1) % 256
    for k in range(holes):
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        dy, dx = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        img[y : y + dy, x : x + dx, : bands if k % 2 == 0 else 1] = nodata
    return img[:, :, 0] if bands == 1 else img


def _batch(shapes, bands=3, fmt="png", nodata=0.0, crs=UTM, holes=0, seed=0, nodata_col=True):
    """One image row per (h, w) in ``shapes``, laid side by side."""
    rng = np.random.default_rng(seed)
    epsg, west, north, px = crs
    rows = {k: [] for k in ("image_id", "bytes", "fmt", "w", "h", "epsg", "caption")}
    gts = []
    for i, (h, w) in enumerate(shapes):
        img = _image(rng, h, w, bands, nodata, holes)
        rows["image_id"].append(f"img{i}")
        rows["bytes"].append(codec.encode(img, fmt))
        rows["fmt"].append(fmt)
        rows["w"].append(w)
        rows["h"].append(h)
        rows["epsg"].append(epsg)
        rows["caption"].append(f"caption {i}")
        gts.append(Affine.from_origin(west + i * 400 * px, north, px, px))
    tbl = pa.table({
        "image_id": pa.array(rows["image_id"], pa.string()),
        "bytes": pa.array(rows["bytes"], pa.binary()),
        "fmt": pa.array(rows["fmt"], pa.string()),
        "w": pa.array(rows["w"], pa.int32()),
        "h": pa.array(rows["h"], pa.int32()),
        "epsg": pa.array(rows["epsg"], pa.int32()),
        **{f"gt_{k}": pa.array([getattr(t, k) for t in gts], pa.float64()) for k in "abcdef"},
        "caption": pa.array(rows["caption"], pa.string()),
    })
    if nodata_col:
        tbl = tbl.append_column("nodata", pa.array([float(nodata)] * len(shapes), pa.float64()))
    return tbl


SHAPES = [(256, 256), (320, 320), (100, 100), (100, 320)]


def _assert_matches_reference(batch, **kw):
    cutter = TileCutter(**kw)
    got = cutter(batch)
    want = reference_cut(cutter, batch)
    assert got.schema == TILE_SCHEMA
    assert got.equals(want), kw
    return got


class TestCutterMatchesReference:
    """The whole-image cutter against the per-tile loop it replaced,
    byte for byte (``pa.Table.equals``)."""

    @pytest.mark.parametrize("fmt", ["png", "qnt"])
    @pytest.mark.parametrize("bands", [1, 3, 4])
    def test_formats_and_bands(self, fmt, bands):
        _assert_matches_reference(_batch(SHAPES, bands, fmt), tile_size=128)

    @pytest.mark.parametrize("nodata", [0.0, 200.0])
    def test_nodata_pixels_inside(self, nodata):
        batch = _batch(SHAPES, 3, nodata=nodata, holes=6)
        got = _assert_matches_reference(batch, tile_size=64)
        # some tile is partly nodata without touching the padding
        assert any(0 < f < 1 for f in got["nodata_frac"].to_pylist()[:16])

    def test_without_nodata_column(self):
        _assert_matches_reference(_batch(SHAPES, 3, holes=4, nodata_col=False), tile_size=128)

    @pytest.mark.parametrize("threshold", [0.05, 0.3, 0.6])
    def test_nodata_threshold(self, threshold):
        batch = _batch(SHAPES, 3, holes=6)
        got = _assert_matches_reference(batch, tile_size=64, nodata_threshold=threshold)
        assert 0 < got.num_rows < TileCutter(tile_size=64)(batch).num_rows

    def test_rect_aoi(self):
        _, west, north, px = UTM
        aoi = (west + 20.0, north - 150.0, west + 250.0, north - 10.0)
        got = _assert_matches_reference(_batch(SHAPES, 3), tile_size=64, aoi=aoi)
        assert any(0 < f < 1 for f in got["nodata_frac"].to_pylist())

    def test_polygon_aoi(self):
        _, west, north, _ = UTM
        ring = np.array([[west + 5.0, north - 5.0], [west + 300.0, north - 30.0],
                         [west + 40.0, north - 120.0]])
        _assert_matches_reference(_batch(SHAPES, 4), tile_size=64, aoi=ring)

    @pytest.mark.parametrize("dest", [4326, 32617])
    def test_dest_epsg_warp(self, dest):
        batch = _batch([(128, 128), (100, 60)], 3)
        got = _assert_matches_reference(batch, tile_size=64, dest_epsg=dest,
                                        nodata_threshold=0.4)
        assert got.num_rows == 5

    def test_degree_crs(self):
        _assert_matches_reference(_batch(SHAPES, 3, crs=DEG), tile_size=128)
        _assert_matches_reference(_batch([(128, 128)], 3, crs=DEG), tile_size=64,
                                  dest_epsg=32610)

    @pytest.mark.parametrize("out_fmt", ["png", "gtif"])
    def test_out_fmt_override(self, out_fmt):
        _assert_matches_reference(_batch(SHAPES, 3, "qnt"), tile_size=128, out_fmt=out_fmt)

    @pytest.mark.parametrize("level", [0, 4])
    def test_encode_level(self, level):
        _assert_matches_reference(_batch(SHAPES, 3), tile_size=128, encode_level=level)

    def test_zero_rows(self):
        got = _assert_matches_reference(_batch([], 3), tile_size=128)
        assert got.num_rows == 0
        # a block without columns, as a shuffle can leave one
        assert TileCutter()(pa.table({})).schema == TILE_SCHEMA

    def test_all_tiles_dropped(self):
        got = _assert_matches_reference(_batch(SHAPES, 3), tile_size=128, nodata_threshold=0.0)
        assert got.num_rows == 0

    @settings(max_examples=30, deadline=None)
    @given(
        shapes=st.lists(st.tuples(st.integers(1, 150), st.integers(1, 150)), min_size=1, max_size=3),
        bands=st.sampled_from([1, 3, 4]),
        nodata=st.sampled_from([0.0, 9.0, 255.0]),
        holes=st.integers(0, 5),
        tile_size=st.sampled_from([16, 32, 64]),
        threshold=st.sampled_from([None, 0.25, 0.75]),
        seed=st.integers(0, 2**16),
    )
    def test_property(self, shapes, bands, nodata, holes, tile_size, threshold, seed):
        batch = _batch(shapes, bands, nodata=nodata, holes=holes, seed=seed)
        _assert_matches_reference(batch, tile_size=tile_size, nodata_threshold=threshold)


def test_plan_names_degree_tiles_by_degrees():
    """A degree-CRS image's planned tiles carry the cutter's 3-decimal
    names: one 256 px EPSG:4326 image at 1e-5 deg/px has four distinct
    tile ids (int-rounded, all four were ``a_-122_38``)."""
    batch = _batch([(256, 256)], 3, crs=DEG).set_column(0, "image_id", pa.array(["a"]))
    plan = plan_tiles(batch, tile_size=128)
    ids = plan["tile_id"].to_pylist()
    assert len(set(ids)) == 4
    assert ids == TileCutter(tile_size=128)(batch)["tile_id"].to_pylist()
    assert ids[0] == "a_-122.4_37.799"
    # without an epsg column the names stay metric
    assert plan_tiles(batch.drop_columns(["epsg"]), 128)["tile_id"].to_pylist() == ["a_-122_38"] * 4


def test_null_epsg_is_an_unknown_crs():
    """A null ``epsg`` cuts and plans as a batch without the column:
    metric names and no warp (the per-tile loop raised a TypeError)."""
    batch = _batch([(256, 256), (100, 60)], 3, crs=DEG)
    nulls = batch.set_column(
        batch.schema.get_field_index("epsg"), "epsg", pa.array([None, 4326], pa.int32())
    )
    cutter = TileCutter(tile_size=128, dest_epsg=32610)
    got = cutter(nulls)
    want = pa.concat_tables([cutter(batch.slice(0, 1).drop_columns(["epsg"])),
                             cutter(batch.slice(1, 1))])
    assert got.equals(want)
    assert got["tile_id"][0].as_py() == "img0_-122_38"
    plan = plan_tiles(nulls, 128)["tile_id"].to_pylist()
    assert plan[:4] == plan_tiles(batch.drop_columns(["epsg"]), 128)["tile_id"].to_pylist()[:4]
    assert plan[4] == "img1_-122.396_37.799"


def test_null_nodata_is_no_nodata_value():
    """A null ``nodata`` cuts like a batch without the column (nodata 0):
    a 100 px image needs padding (the cutter raised a TypeError filling
    it with None) and a 128 px one fills its grid (its 0 pixels were not
    counted, ``nodata_frac`` read 0.0)."""
    batch = _batch([(100, 100), (128, 128)], 3, holes=6)
    nulls = batch.set_column(
        batch.schema.get_field_index("nodata"), "nodata", pa.array([None, None], pa.float64())
    )
    cutter = TileCutter(tile_size=128)
    got = cutter(nulls)
    assert got.equals(cutter(batch.drop_columns(["nodata"])))
    assert got.equals(cutter(batch))
    assert got["nodata_frac"][1].as_py() > 0.0
