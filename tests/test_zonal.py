"""Zonal statistics vs constant-value oracle."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from solaris_ray.raster import codec
from solaris_ray.stages import zonal


def _tile_row(tid, x0, y0, size, value):
    img = np.full((size, size, 3), value, dtype=np.uint8)
    return {
        "tile_id": tid,
        "image_id": "i0",
        "bytes": codec.encode(img, "png"),
        "fmt": "png",
        "x0": float(x0),
        "y0": float(y0),
        "x1": float(x0 + size),
        "y1": float(y0 + size),
    }


def _feature(fid, cx, cy, half):
    xs = [cx - half, cx + half, cx + half, cx - half]
    ys = [cy - half, cy - half, cy + half, cy + half]
    return {
        "feature_id": fid,
        "image_id": "i0",
        "class": "building",
        "xs": xs,
        "ys": ys,
        "minx": min(xs),
        "miny": min(ys),
        "maxx": max(xs),
        "maxy": max(ys),
    }


FEATURE_SCHEMA = pa.schema(
    [
        ("feature_id", pa.int64()),
        ("image_id", pa.string()),
        ("class", pa.string()),
        ("xs", pa.list_(pa.float64())),
        ("ys", pa.list_(pa.float64())),
        ("minx", pa.float64()),
        ("miny", pa.float64()),
        ("maxx", pa.float64()),
        ("maxy", pa.float64()),
    ]
)


def test_zonal_constant_tiles(ray_session):
    import ray

    # two 64px tiles side by side with values 100 and 200; one feature
    # entirely inside tile A, one straddling the boundary 50/50
    tiles = pa.Table.from_pylist(
        [_tile_row("a", 0, 0, 64, 100), _tile_row("b", 64, 0, 64, 200)]
    )
    feats = pa.Table.from_pylist(
        [_feature(1, 20.0, 32.0, 10.0), _feature(2, 64.0, 32.0, 10.0)],
        schema=FEATURE_SCHEMA,
    )
    out = (
        zonal.zonal_stats(ray.data.from_arrow(tiles), feats)
        .to_pandas()
        .set_index("feature_id")
    )
    assert out.loc[1, "mean_b0"] == 100.0
    assert out.loc[1, "n_px"] == 20 * 20
    # straddling feature: half pixels at 100, half at 200
    assert out.loc[2, "n_px"] == 20 * 20
    assert out.loc[2, "mean_b0"] == 150.0


def test_zonal_outside_feature_absent(ray_session):
    import ray

    tiles = pa.Table.from_pylist([_tile_row("a", 0, 0, 64, 50)])
    feats = pa.Table.from_pylist(
        [_feature(9, 500.0, 500.0, 10.0)], schema=FEATURE_SCHEMA
    )
    out = zonal.zonal_stats(ray.data.from_arrow(tiles), feats).to_pandas()
    assert len(out) == 0
