"""UTM reprojection + augmentation tests."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from solaris_ray.geom import crs
from solaris_ray.raster import codec
from solaris_ray.stages import augment


def test_utm_zone_and_epsg():
    assert crs.latlon_to_utm_epsg(38.9, -77.0) == 32618  # DC
    assert crs.latlon_to_utm_epsg(-33.9, 151.2) == 32756  # Sydney
    assert crs.utm_zone(-87.9, 41.9) == 16  # Chicago zone 16 (reference fixtures use 32616)


def test_utm_known_invariants():
    # on the central meridian the easting is exactly the false easting
    e, n, zone = crs.latlon_to_utm(np.array([-75.0]), np.array([40.0]), zone=18)
    assert e[0] == 500000.0
    # northing = k0 * meridian arc; M(40 deg) = 4429529.03 m (Snyder,
    # USGS PP1395 table) -> 0.9996 * 4429529.03 = 4427757.2
    assert abs(n[0] - 4427757.2) < 0.5
    # equator on the central meridian is the origin
    e, n, zone = crs.latlon_to_utm(np.array([3.0]), np.array([0.0]), zone=31)
    assert e[0] == 500000.0 and n[0] == 0.0


def test_utm_roundtrip_many():
    rng = np.random.default_rng(6)
    lon = rng.uniform(-86.99, -85.0, 200)  # inside zone 16
    lat = rng.uniform(30.0, 45.0, 200)
    e, n, zone = crs.latlon_to_utm(lon, lat, zone=16)
    lon2, lat2 = crs.utm_to_latlon(e, n, 16)
    assert np.abs(lon2 - lon).max() < 1e-7
    assert np.abs(lat2 - lat).max() < 1e-7


def test_utm_southern_hemisphere_roundtrip():
    e, n, zone = crs.latlon_to_utm(np.array([151.2]), np.array([-33.9]))
    assert n[0] > 6e6  # false northing applied
    lon2, lat2 = crs.utm_to_latlon(e, n, zone, south=True)
    assert abs(lon2[0] - 151.2) < 1e-6 and abs(lat2[0] + 33.9) < 1e-6


def test_reproject_false_northing_follows_target_epsg():
    """The false northing comes from the target zone's hemisphere, not
    from the point's: a point just across the equator still round-trips
    through the other hemisphere's zone."""
    for lat, epsg in ((-1.0, 32601), (1.0, 32701)):
        lon = np.array([-177.0])
        e, n = crs.reproject(lon, np.array([lat]), 4326, epsg)
        # 326xx: northing < 0 south of the equator; 327xx: > 10,000 km north of it
        assert (n[0] < 0) if epsg == 32601 else (n[0] > 1e7)
        lon2, lat2 = crs.reproject(e, n, epsg, 4326)
        assert abs(lon2[0] - lon[0]) < 1e-6 and abs(lat2[0] - lat) < 1e-6


def test_projection_unit():
    assert crs.projection_unit(32616) == "metre"
    assert crs.projection_unit(4326) == "degree"
    assert crs.projection_unit(3857) == "metre"


def test_webmercator_known_points():
    # EPSG registry example values: equator/prime meridian is origin;
    # (lon=180, lat=0) -> x = a*pi
    x, y = crs.latlon_to_webmercator(np.array([0.0, 180.0]), np.array([0.0, 0.0]))
    assert abs(x[0]) < 1e-9 and abs(y[0]) < 1e-9
    assert abs(x[1] - 6378137.0 * np.pi) < 1e-6
    # closed-form anchors: x(2°E) = a*pi/90; y(45°N) = a*ln(tan(67.5°))
    x, y = crs.latlon_to_webmercator(np.array([2.0]), np.array([45.0]))
    assert abs(x[0] - 6378137.0 * np.pi / 90) < 1e-6
    assert abs(y[0] - 6378137.0 * np.log(np.tan(np.radians(67.5)))) < 1e-6
    assert abs(y[0] - 5621521.486) < 0.01  # the standard 45°N value


def test_webmercator_roundtrip_many():
    rng = np.random.default_rng(7)
    lon = rng.uniform(-179.9, 179.9, 500)
    lat = rng.uniform(-84.9, 84.9, 500)
    x, y = crs.latlon_to_webmercator(lon, lat)
    lon2, lat2 = crs.webmercator_to_latlon(x, y)
    assert np.abs(lon2 - lon).max() < 1e-9
    assert np.abs(lat2 - lat).max() < 1e-9


def test_webmercator_domain_enforced():
    import pytest

    with pytest.raises(ValueError):
        crs.latlon_to_webmercator(np.array([0.0]), np.array([86.0]))


def test_reproject_dispatcher_utm_to_3857():
    lon = np.array([-87.0, -86.5])
    lat = np.array([30.2, 34.7])
    e, n, _ = crs.latlon_to_utm(lon, lat, zone=16)
    x_direct, y_direct = crs.latlon_to_webmercator(lon, lat)
    x, y = crs.reproject(e, n, 32616, 3857)
    assert np.abs(x - x_direct).max() < 1e-3  # sub-mm through the pivot
    assert np.abs(y - y_direct).max() < 1e-3
    # identity and unsupported-code behavior
    xs, ys = crs.reproject(lon, lat, 4326, 4326)
    assert np.array_equal(xs, lon) and np.array_equal(ys, lat)
    import pytest

    with pytest.raises(ValueError):
        crs.reproject(lon, lat, 9999, 3857)


def _img_tbl(n=3, size=32):
    rng = np.random.default_rng(1)
    rows = []
    for i in range(n):
        img = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
        rows.append({"image_id": f"a{i}", "bytes": codec.encode(img, "png"), "fmt": "png"})
    return pa.Table.from_pylist(rows)


def test_augment_deterministic_per_row(ray_session):
    import ray

    cfg = {"rotate": {"limit": 30.0, "p": 1.0}, "flip_lr": {"p": 0.5}}
    a = augment.augment(ray.data.from_arrow(_img_tbl()), cfg, seed=7).to_pandas()
    b = augment.augment(ray.data.from_arrow(_img_tbl()), cfg, seed=7).to_pandas()
    for iid in a["image_id"]:
        x = a[a.image_id == iid].iloc[0]["bytes"]
        y = b[b.image_id == iid].iloc[0]["bytes"]
        assert x == y  # same row => same augmentation at any parallelism


def test_rotate90_and_flip_exact():
    img = np.arange(12, dtype=np.uint8).reshape(2, 2, 3)
    assert np.array_equal(augment.rotate90(img, 1), np.rot90(img))
    assert np.array_equal(augment.flip_lr(img), img[:, ::-1])


def test_rotate_zero_identity():
    img = np.random.default_rng(2).integers(0, 256, (16, 16, 3), dtype=np.uint8)
    assert np.array_equal(augment.rotate(img, 0.0), img)


def test_random_scale_preserves_shape():
    img = np.random.default_rng(3).integers(0, 256, (20, 24, 3), dtype=np.uint8)
    out = augment.random_scale(img, np.random.default_rng(4))
    assert out.shape == img.shape


def test_center_crop_exact():
    img = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
    out = augment.center_crop(img, 4, 4)
    assert out.shape == (4, 4, 3)
    assert np.array_equal(out, img[2:6, 2:6])
    import pytest

    with pytest.raises(ValueError):
        augment.center_crop(img, 9, 4)


def test_random_crop_in_bounds_and_seeded():
    img = np.arange(16 * 16, dtype=np.uint8).reshape(16, 16, 1)
    a = augment.random_crop(img, np.random.default_rng(5), 8, 8)
    b = augment.random_crop(img, np.random.default_rng(5), 8, 8)
    assert a.shape == (8, 8, 1) and np.array_equal(a, b)
    # crop content must be a contiguous window of the source
    top_left = int(a[0, 0, 0])
    r, c = divmod(top_left, 16)
    assert np.array_equal(a[:, :, 0], np.arange(256).reshape(16, 16)[r:r+8, c:c+8] % 256)


def test_brightness_contrast_formula():
    img = np.full((4, 4, 3), 100, np.uint8)
    rng = np.random.default_rng(3)
    out = augment.random_brightness_contrast(img, rng, 0.2, 0.2)
    # replay the same draws to state the formula verbatim
    rng2 = np.random.default_rng(3)
    alpha = 1.0 + rng2.uniform(-0.2, 0.2)
    beta = rng2.uniform(-0.2, 0.2) * 255.0
    want = np.clip(np.rint(100 * alpha + beta), 0, 255).astype(np.uint8)
    assert (out == want).all()


def test_hsv_shift_roundtrip_zero_limits():
    rng = np.random.default_rng(1)
    img = np.random.default_rng(2).integers(0, 256, (8, 8, 3), dtype=np.uint8)
    out = augment.hue_saturation_value(img, rng, 0.0, 0.0, 0.0)
    # zero shift = pure HSV roundtrip; rint quantization stays within 1
    assert np.abs(out.astype(int) - img.astype(int)).max() <= 1


def test_normalize_values_and_terminal_fmt(ray_session):
    import ray.data

    img = np.full((4, 4, 3), 127, np.uint8)
    out = augment.normalize(img)
    want0 = (127 / 255.0 - 0.485) / 0.229
    assert abs(out[0, 0, 0] - want0) < 1e-12
    # through the Augmenter: float result rides the f64 codec
    tbl = pa.Table.from_pylist([
        {"image_id": "n0", "bytes": codec.encode(img, "png"), "fmt": "png"}])
    res = augment.augment(ray.data.from_arrow(tbl),
                          {"Normalize": {"p": 1.0}}).to_pandas()
    assert res.fmt[0] == "f64"
    dec = codec.decode(res.bytes[0], "f64")
    assert abs(dec[0, 0, 0] - want0) < 1e-12


def test_albumentations_aliases_match_house_names():
    img = np.random.default_rng(4).integers(0, 256, (6, 6, 3), dtype=np.uint8)
    rng = np.random.default_rng(0)
    assert np.array_equal(
        augment.AUG_REGISTRY["HorizontalFlip"](img, rng),
        augment.AUG_REGISTRY["flip_lr"](img, rng))
    assert np.array_equal(
        augment.AUG_REGISTRY["VerticalFlip"](img, rng),
        augment.AUG_REGISTRY["flip_ud"](img, rng))
    # RandomRotate90 draws k in [0,4) from the row rng — deterministic
    a = augment.AUG_REGISTRY["RandomRotate90"](img, np.random.default_rng(9))
    k = int(np.random.default_rng(9).integers(0, 4))
    assert np.array_equal(a, np.rot90(img, k=k, axes=(0, 1)))


def test_augmenter_crop_updates_dims(ray_session):
    import ray.data

    img = np.random.default_rng(6).integers(0, 256, (16, 16, 3), dtype=np.uint8)
    tbl = pa.Table.from_pylist([{
        "image_id": "c0", "bytes": codec.encode(img, "png"), "fmt": "png",
        "w": 16, "h": 16}])
    res = augment.augment(
        ray.data.from_arrow(tbl),
        {"CenterCrop": {"height": 8, "width": 6, "p": 1.0}}).to_pandas()
    assert res.w[0] == 6 and res.h[0] == 8
    dec = codec.decode(res.bytes[0], "png")
    assert dec.shape[:2] == (8, 6)


def test_unknown_aug_rejected():
    import pytest

    with pytest.raises(ValueError):
        augment.Augmenter({"nope": {}})


def test_pair_augment_mask_follows_image(ray_session):
    import ray.data

    img = np.random.default_rng(8).integers(0, 256, (16, 16, 3), dtype=np.uint8)
    mask = (np.random.default_rng(9).integers(0, 2, (16, 16)) * 255).astype(np.uint8)
    tbl = pa.Table.from_pylist([{
        "image_id": "p0", "bytes": codec.encode(img, "png"), "fmt": "png",
        "mask": codec.encode(mask, "png")}])
    cfg = {"HorizontalFlip": {"p": 1.0},
           "RandomCrop": {"height": 8, "width": 8, "p": 1.0}}
    res = augment.augment(ray.data.from_arrow(tbl), cfg, seed=3,
                          mask_col="mask").to_pandas()
    out_img = codec.decode(res.bytes[0], "png")
    out_mask = codec.decode(res["mask"][0], "png")
    assert out_img.shape[:2] == (8, 8) and out_mask.shape[:2] == (8, 8)
    # the mask window must be the SAME window: replay the draws
    rng = np.random.default_rng([3, __import__("zlib").crc32(b"p0")])
    assert rng.random() < 1.0  # HorizontalFlip p-draw
    assert rng.random() < 1.0  # RandomCrop p-draw
    f_img, f_mask = img[:, ::-1], mask[:, ::-1]
    top = int(rng.integers(0, 16 - 8 + 1))
    left = int(rng.integers(0, 16 - 8 + 1))
    assert np.array_equal(out_img, f_img[top:top+8, left:left+8])
    assert np.array_equal(out_mask, f_mask[top:top+8, left:left+8])


def test_pair_augment_image_identical_to_single_path(ray_session):
    import ray.data

    img = np.random.default_rng(12).integers(0, 256, (16, 16, 3), dtype=np.uint8)
    mask = np.zeros((16, 16), np.uint8)
    cfg = {"RandomRotate90": {"p": 1.0},
           "RandomBrightnessContrast": {"p": 1.0},
           "Rotate": {"limit": 30.0, "p": 1.0}}
    base = pa.Table.from_pylist([{
        "image_id": "q1", "bytes": codec.encode(img, "png"), "fmt": "png"}])
    with_mask = base.append_column("mask", pa.array([codec.encode(mask, "png")],
                                                    pa.binary()))
    single = augment.augment(ray.data.from_arrow(base), cfg, seed=5).to_pandas()
    paired = augment.augment(ray.data.from_arrow(with_mask), cfg, seed=5,
                             mask_col="mask").to_pandas()
    assert single.bytes[0] == paired.bytes[0]


def test_pair_augment_unknown_pair_aug_rejected():
    import pytest

    with pytest.raises(ValueError):
        augment.Augmenter({"no_such": {}}, mask_col="mask")
