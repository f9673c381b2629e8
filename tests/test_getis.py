"""Getis-Ord Gi* tests against a naive dense twin (queen window
including self, occupied cells only)."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.moran import getis_ord


def _pts_ds(xy, n_blocks=3):
    t = pa.table(
        {
            "x": pa.array([float(p[0]) for p in xy], pa.float64()),
            "y": pa.array([float(p[1]) for p in xy], pa.float64()),
        }
    )
    return ray.data.from_arrow(t).repartition(n_blocks)


def _naive(xy, cell):
    c = Counter((int(np.floor(x / cell)), int(np.floor(y / cell))) for x, y in xy)
    n = len(c)
    sx = sum(c.values())
    sx2 = sum(v * v for v in c.values())
    xbar = sx / n
    s = math.sqrt(sx2 / n - xbar * xbar)
    out = {}
    for (cx, cy) in c:
        win = [
            c[(cx + dx, cy + dy)]
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            if (cx + dx, cy + dy) in c
        ]
        k = len(win)
        ws = sum(win)
        num = ws - xbar * k
        den = s * math.sqrt((n * k - k * k) / (n - 1)) if n > 1 else 0.0
        out[(cx, cy)] = (k, ws, round(num / den, 6) if den > 0 else 0.0)
    return out


def _run(xy, cell, n_blocks=3):
    got = getis_ord(_pts_ds(xy, n_blocks), cell=cell).take_all()
    return {(r["cx"], r["cy"]): (r["k"], r["wsum"], r["gi6"]) for r in got}


def test_matches_naive_random():
    rng = np.random.default_rng(41)
    xy = rng.uniform(0, 400, size=(2500, 2)).tolist()
    got = _run(xy, 50.0)
    expect = _naive(xy, 50.0)
    assert set(got) == set(expect)
    for key in got:
        assert got[key][:2] == expect[key][:2]
        assert got[key][2] == pytest.approx(expect[key][2], abs=2e-6)


def test_hotspot_scores_high():
    rng = np.random.default_rng(43)
    xy = np.concatenate(
        [rng.normal(120, 25, size=(3000, 2)), rng.uniform(0, 900, size=(400, 2))]
    ).tolist()
    got = _run(xy, 60.0)
    expect = _naive(xy, 60.0)
    # the hottest cell in the blob scores clearly positive
    hot = max(got.values(), key=lambda v: v[2])[2]
    assert hot > 1.0
    for key in got:
        assert got[key][2] == pytest.approx(expect[key][2], abs=2e-6)


def test_negative_coords_and_bucket_invariance(ray_session):
    rng = np.random.default_rng(47)
    xy = rng.uniform(-200, 200, size=(1200, 2)).tolist()
    # the bucket count follows the input's block count
    assert shuffle_width(_pts_ds(xy, 3)) != shuffle_width(_pts_ds(xy, 97))
    ka = _run(xy, 40.0, n_blocks=3)
    assert _run(xy, 40.0, n_blocks=97) == ka
    expect = _naive(xy, 40.0)
    assert set(ka) == set(expect)
    for key in ka:
        assert ka[key][:2] == expect[key][:2]
        assert ka[key][2] == pytest.approx(expect[key][2], abs=2e-6)


def test_rejects_bad_cell():
    with pytest.raises(ValueError):
        getis_ord(_pts_ds([(0, 0)]), cell=-1.0)
