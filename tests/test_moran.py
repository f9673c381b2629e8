"""Moran's I tests against a naive dense twin (queen contiguity over
occupied cells, textbook formula)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.moran import moran_i


def _pts_ds(xy, n_blocks=3):
    t = pa.table(
        {
            "x": pa.array([float(p[0]) for p in xy], pa.float64()),
            "y": pa.array([float(p[1]) for p in xy], pa.float64()),
        }
    )
    return ray.data.from_arrow(t).repartition(n_blocks)


def _naive(xy, cell):
    from collections import Counter

    c = Counter((int(np.floor(x / cell)), int(np.floor(y / cell))) for x, y in xy)
    keys = list(c)
    vals = np.array([c[k] for k in keys], np.float64)
    n = len(keys)
    pos = {k: i for i, k in enumerate(keys)}
    w = np.zeros((n, n))
    for (cx, cy), i in pos.items():
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == dy == 0:
                    continue
                j = pos.get((cx + dx, cy + dy))
                if j is not None:
                    w[i, j] = 1.0
    W = w.sum()
    xbar = vals.mean()
    d = vals - xbar
    num = (w * d[:, None] * d[None, :]).sum()
    den = (d * d).sum()
    if W == 0 or den == 0:
        return None
    return (n / W) * num / den


def _run(xy, cell):
    row = moran_i(_pts_ds(xy), cell=cell).take_all()[0]
    return row


def test_matches_naive_random():
    rng = np.random.default_rng(3)
    xy = rng.uniform(0, 400, size=(2000, 2)).tolist()
    row = _run(xy, 50.0)
    expect = _naive(xy, 50.0)
    assert row["moran_e6"] == pytest.approx(expect * 1e6, abs=1.5)
    # sufficient statistics are self-consistent
    assert row["n_cells"] == 64 and row["w_pairs"] > 0


def test_clustered_positive_autocorrelation():
    rng = np.random.default_rng(5)
    # one dense blob -> neighbouring cells share high counts
    xy = np.concatenate(
        [rng.normal(100, 30, size=(3000, 2)), rng.uniform(0, 800, size=(500, 2))]
    ).tolist()
    row = _run(xy, 40.0)
    expect = _naive(xy, 40.0)
    assert expect > 0.1
    assert row["moran_e6"] == pytest.approx(expect * 1e6, abs=1.5)


def test_negative_coordinates_and_bucket_invariance(ray_session):
    rng = np.random.default_rng(8)
    xy = rng.uniform(-300, 300, size=(1500, 2)).tolist()
    # the bucket count follows the input's block count
    assert shuffle_width(_pts_ds(xy, 3)) != shuffle_width(_pts_ds(xy, 97))
    r3 = moran_i(_pts_ds(xy, n_blocks=3), cell=60.0).take_all()[0]
    r97 = moran_i(_pts_ds(xy, n_blocks=97), cell=60.0).take_all()[0]
    assert r3 == r97
    assert r3["moran_e6"] == pytest.approx(_naive(xy, 60.0) * 1e6, abs=1.5)


def test_rejects_bad_cell():
    with pytest.raises(ValueError):
        moran_i(_pts_ds([(0, 0)]), cell=0.0)
