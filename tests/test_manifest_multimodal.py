"""Checkpoint/resume manifest + multimodal stage tests."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from solaris_ray.raster import codec
from solaris_ray.stages import multimodal
from solaris_ray.state.manifest import PartitionManifest, run_partitioned


def _images_tbl(n=6, size=32):
    rows = []
    rng = np.random.default_rng(3)
    for i in range(n):
        img = rng.integers(0, 256, (size, size, 3), dtype=np.uint8)
        rows.append(
            {
                "image_id": f"m{i}",
                "bytes": codec.encode(img, "png"),
                "w": size,
                "h": size,
                "fmt": "png",
            }
        )
    return pa.Table.from_pylist(rows)


def test_run_partitioned_resume(ray_session, tmp_path):
    import ray

    calls = []

    def make_ds(pid):
        calls.append(pid)
        return ray.data.from_arrow(
            pa.table({"pid": pa.array([pid] * 10, pa.int64()), "v": pa.array(range(10))})
        )

    out = str(tmp_path / "out")
    r1 = run_partitioned(out, [0, 1, 2], make_ds)
    assert r1["processed"] == [0, 1, 2] and r1["skipped"] == []
    assert all(m["rows"] == 10 for m in r1["metrics"].values())
    # resume: nothing re-processed
    r2 = run_partitioned(out, [0, 1, 2], make_ds)
    assert r2["processed"] == [] and r2["skipped"] == [0, 1, 2]
    assert calls == [0, 1, 2]
    # drop one manifest entry -> only that partition re-runs, and its
    # rows replace the files the first run left (not appended to them)
    import os

    os.remove(os.path.join(out, "_manifest", "part-1.json"))
    r3 = run_partitioned(out, [0, 1, 2], make_ds)
    assert r3["processed"] == [1] and r3["skipped"] == [0, 2]
    assert r3["metrics"][1]["rows"] == r1["metrics"][1]["rows"] == 10
    assert r3["metrics"][1]["checksum"] == r1["metrics"][1]["checksum"]


def test_kill_mid_run_resumes_only_missing(ray_session, tmp_path):
    """Crash simulation: the run dies after partition 0 lands (make_ds
    raises on partition 1).  The resume run must re-run ONLY the
    missing partitions — partition 0's data files are untouched (same
    mtime) and its checksum verifies."""
    import os

    import pytest
    import ray

    from solaris_ray.state.manifest import verify_partitions

    boom = {"armed": True}

    def make_ds(pid):
        if pid == 1 and boom["armed"]:
            raise RuntimeError("simulated crash mid-run")
        return ray.data.from_arrow(
            pa.table({"pid": pa.array([pid] * 5, pa.int64()), "v": pa.array(range(5))})
        )

    out = str(tmp_path / "out")
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_partitioned(out, [0, 1, 2], make_ds)
    # partition 0 finished before the crash; 1 and 2 did not
    p0_files = {
        f: os.path.getmtime(os.path.join(out, "part=0", f))
        for f in os.listdir(os.path.join(out, "part=0"))
    }
    boom["armed"] = False
    r = run_partitioned(out, [0, 1, 2], make_ds)
    assert r["skipped"] == [0] and r["processed"] == [1, 2]
    for f, mt in p0_files.items():
        assert os.path.getmtime(os.path.join(out, "part=0", f)) == mt
    v = verify_partitions(out)
    assert v == {0: True, 1: True, 2: True}


def test_checksum_detects_damage(ray_session, tmp_path):
    import os

    import ray

    from solaris_ray.state.manifest import verify_partitions

    def make_ds(pid):
        return ray.data.from_arrow(
            pa.table({"pid": pa.array([pid] * 5, pa.int64()), "v": pa.array(range(5))})
        )

    out = str(tmp_path / "out")
    run_partitioned(out, [0, 1], make_ds)
    assert all(verify_partitions(out).values())
    # damage partition 1's data file -> its checksum must fail
    pdir = os.path.join(out, "part=1")
    victim = [f for f in os.listdir(pdir) if f.endswith(".parquet")][0]
    os.remove(os.path.join(pdir, victim))
    v = verify_partitions(out)
    assert v[0] is True and v[1] is False


def test_manifest_torn_write_retries(tmp_path):
    m = PartitionManifest(str(tmp_path))
    m.mark_done(0, {"partition": 0}, {"rows": 1})
    # torn/corrupt file is treated as not-done
    with open(f"{tmp_path}/_manifest/part-1.json", "w") as f:
        f.write('{"partition_id": 1, "status"')
    assert m.pending([0, 1, 2]) == [1, 2]


def test_image_resizer_native(ray_session):
    import ray

    ds = ray.data.from_arrow(_images_tbl())
    out = ds.map_batches(
        multimodal.ImageResizer(16, 16), batch_format="pyarrow", batch_size=4
    ).to_pandas()
    assert (out["w"] == 16).all() and (out["h"] == 16).all()
    img = codec.decode(out.iloc[0]["bytes"], "png")
    assert img.shape == (16, 16, 3)


def test_decode_stub_strict_raises():
    import pytest

    if multimodal.STUB_FMTS:
        # on boxes without libwebp, webp stays an honest stub
        fmt = next(iter(multimodal.STUB_FMTS))
        with pytest.raises(NotImplementedError):
            multimodal.decode_any(b"xx", fmt, 8, 8, strict=True)
        a = multimodal.decode_any(b"xx", fmt, 8, 8, strict=False)
        b = multimodal.decode_any(b"xx", fmt, 8, 8, strict=False)
        assert np.array_equal(a, b)  # deterministic fake
        assert a.shape == (8, 8, 3)
    else:
        # every image format is real here (webp upgraded through the
        # system libwebp); garbage must raise, never fake
        with pytest.raises(ValueError):
            multimodal.decode_any(b"xx", "webp", 8, 8, strict=True)


def test_decode_any_jpeg_is_real():
    """jpeg is no longer stubbed: decode_any round-trips real baseline
    JPEG bytes (raster.jpeg) and garbage raises instead of faking."""
    import pytest

    from solaris_ray.raster.jpeg import jpeg_encode

    yy, xx = np.indices((32, 24))
    img = (128 + 60 * np.sin(xx / 5) * np.cos(yy / 7)).astype(np.uint8)
    rgb = np.stack([img, img[::-1], 255 - img], -1)
    buf = jpeg_encode(rgb, quality=95)
    dec = multimodal.decode_any(buf, "jpeg", 24, 32, strict=True)
    assert dec.shape == (32, 24, 3)
    assert codec.psnr(rgb, dec) >= 40.0
    with pytest.raises(ValueError):
        multimodal.decode_any(b"xx", "jpeg", 8, 8, strict=True)


def test_frame_sampler_fanout(ray_session):
    import ray

    vids = pa.Table.from_pylist(
        [
            {"media_id": "v0", "bytes": b"fakevideo0", "fmt": "mp4", "n_frames": 25, "w": 8, "h": 8},
            {"media_id": "v1", "bytes": b"fakevideo1", "fmt": "mp4", "n_frames": 5, "w": 8, "h": 8},
        ]
    )
    out = (
        ray.data.from_arrow(vids)
        .map_batches(multimodal.FrameSampler(every_k=10), batch_format="pyarrow")
        .to_pandas()
    )
    assert sorted(out[out.media_id == "v0"]["frame_idx"]) == [0, 10, 20]
    assert sorted(out[out.media_id == "v1"]["frame_idx"]) == [0]


def test_embedding_extractor_deterministic(ray_session):
    import ray

    ds = ray.data.from_arrow(_images_tbl())
    e1 = multimodal.extract_embeddings(ds, dim=16, concurrency=2).to_pandas()
    e2 = multimodal.extract_embeddings(ray.data.from_arrow(_images_tbl()), dim=16, concurrency=2).to_pandas()
    assert len(e1) == 6 and len(e1.iloc[0]["embedding"]) == 16
    a = np.stack(e1.sort_values("image_id")["embedding"].values)
    b = np.stack(e2.sort_values("image_id")["embedding"].values)
    assert np.allclose(a, b)


def test_image_stats(ray_session):
    import ray

    ds = ray.data.from_arrow(_images_tbl(n=3))
    out = ds.map_batches(multimodal.ImageStats(), batch_format="pyarrow").to_pandas()
    assert len(out) == 3
    assert (out["px_max"] <= 255).all() and (out["px_min"] >= 0).all()


def test_patchify_layout_and_bytes_mode(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray

    from solaris_ray.raster import codec
    from solaris_ray.stages.multimodal import Patchify

    rng = np.random.default_rng(41)
    img = rng.integers(0, 251, (32, 48)).astype(np.uint8)  # 2x3 patch grid
    ds = ray.data.from_arrow(
        pa.table(
            {
                "image_id": pa.array(["a"]),
                "bytes": pa.array([codec.encode(img, "png")], pa.binary()),
                "fmt": pa.array(["png"]),
            }
        )
    )
    got = ds.map_batches(Patchify(patch=16), batch_format="pyarrow").to_pandas()
    assert list(got["patch_idx"]) == list(range(6))
    for pi in range(6):
        py, px_ = pi // 3, pi % 3
        exp = int(img[py * 16:(py + 1) * 16, px_ * 16:(px_ + 1) * 16]
                  .astype(np.int64).sum())
        assert got["px_sum"].iloc[pi] == exp
    # bytes mode round-trips the exact patch pixels
    got_b = ds.map_batches(
        Patchify(patch=16, summary_only=False), batch_format="pyarrow"
    ).to_pandas()
    p0 = np.frombuffer(got_b["patch"].iloc[4], np.uint8).reshape(16, 16)
    assert (p0 == img[16:32, 16:32]).all()


def test_image_quality_metrics():
    from solaris_ray.raster.codec import encode
    from solaris_ray.stages.multimodal import ImageQuality

    # constant image: zero sharpness by definition
    c = np.full((32, 32), 77, np.uint8)
    # high-frequency checkerboard: maximal Laplacian energy
    yy, xx = np.indices((32, 32))
    cb = (((xx + yy) % 2) * 255).astype(np.uint8)
    tbl = pa.table({
        "image_id": pa.array(["flat", "check"]),
        "bytes": pa.array([encode(c, "png"), encode(cb, "png")]),
        "fmt": pa.array(["png", "png"]),
    })
    out = ImageQuality()(tbl).to_pandas().set_index("image_id")
    assert out.loc["flat", "lap_var6"] == 0.0
    assert out.loc["flat", "grad6"] == 0.0
    # checkerboard: lap = +-8*255 alternating, mean 0 in the interior
    # when counts balance; variance is (8*255)^2 when exactly balanced
    assert out.loc["check", "lap_var6"] > 1e6
    # central differences of a checkerboard are 0 (x+1 and x-1 match)
    assert out.loc["check", "grad6"] == 0.0
    # rgb path reduces via integer luma without error
    rgb = np.stack([cb, cb, c], -1)
    tbl2 = pa.table({"image_id": pa.array(["rgb"]),
                     "bytes": pa.array([encode(rgb, "png")]),
                     "fmt": pa.array(["png"])})
    out2 = ImageQuality()(tbl2).to_pandas()
    assert out2["lap_var6"].iloc[0] > 0


def test_overview_builder_exact_means(ray_session):
    import ray.data

    from solaris_ray.raster import codec
    from solaris_ray.stages.multimodal import build_overviews

    img = np.arange(8 * 8, dtype=np.uint8).reshape(8, 8)
    tbl = pa.table({
        "image_id": pa.array(["o1"], pa.string()),
        "bytes": pa.array([codec.encode(img, "png")], pa.binary()),
        "fmt": pa.array(["png"], pa.string()),
    })
    out = build_overviews(ray.data.from_arrow(tbl), levels=3,
                          concurrency=1).to_pandas().sort_values("level")
    assert out.level.tolist() == [1, 2, 3]
    l1 = codec.decode(out.iloc[0].bytes, "png")
    want1 = img.astype(np.int64).reshape(4, 2, 4, 2).sum(axis=(1, 3)) // 4
    assert np.array_equal(l1, want1.astype(np.uint8))
    l3 = codec.decode(out.iloc[2].bytes, "png")
    assert l3.shape == (1, 1)
    # level stops when a dim hits zero: 3 levels from 8px is the max
    out2 = build_overviews(ray.data.from_arrow(tbl), levels=5,
                           concurrency=1).to_pandas()
    assert out2.level.max() == 3


def test_overview_builder_odd_dims_truncate(ray_session):
    import ray.data

    from solaris_ray.raster import codec
    from solaris_ray.stages.multimodal import build_overviews

    img = np.arange(5 * 7, dtype=np.uint8).reshape(5, 7)
    tbl = pa.table({
        "image_id": pa.array(["o2"], pa.string()),
        "bytes": pa.array([codec.encode(img, "png")], pa.binary()),
        "fmt": pa.array(["png"], pa.string()),
    })
    out = build_overviews(ray.data.from_arrow(tbl), levels=1,
                          concurrency=1).to_pandas()
    l1 = codec.decode(out.iloc[0].bytes, "png")
    want = img[:4, :6].astype(np.int64).reshape(2, 2, 3, 2).sum(axis=(1, 3)) // 4
    assert np.array_equal(l1, want.astype(np.uint8))
    assert (out.iloc[0].w, out.iloc[0].h) == (3, 2)
