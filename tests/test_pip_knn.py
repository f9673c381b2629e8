"""PIP join and kNN join vs brute-force numpy oracles."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from solaris_ray.stages import knn, pip

RNG = np.random.default_rng(11)
N_PTS = 500
N_FEAT = 80


def _points():
    x = RNG.uniform(0, 3000, N_PTS)
    y = RNG.uniform(0, 3000, N_PTS)
    return pa.table(
        {
            "point_id": pa.array(np.arange(N_PTS, dtype=np.int64)),
            "x": pa.array(x),
            "y": pa.array(y),
        }
    )


def _boxes():
    cx = RNG.uniform(0, 3000, N_FEAT)
    cy = RNG.uniform(0, 3000, N_FEAT)
    hw = RNG.uniform(20, 400, N_FEAT)
    hh = RNG.uniform(20, 400, N_FEAT)
    return pa.table(
        {
            "feature_id": pa.array(np.arange(N_FEAT, dtype=np.int64)),
            "minx": pa.array(cx - hw),
            "miny": pa.array(cy - hh),
            "maxx": pa.array(cx + hw),
            "maxy": pa.array(cy + hh),
        }
    )


def _tri_rings():
    """Right triangles: half the bbox — distinguishes exact PIP from bbox."""
    cx = RNG.uniform(0, 3000, N_FEAT)
    cy = RNG.uniform(0, 3000, N_FEAT)
    r = RNG.uniform(50, 400, N_FEAT)
    xs = np.stack([cx - r, cx + r, cx - r], axis=1)
    ys = np.stack([cy - r, cy - r, cy + r], axis=1)
    return pa.table(
        {
            "feature_id": pa.array(np.arange(N_FEAT, dtype=np.int64)),
            "xs": pa.array(xs.tolist(), pa.list_(pa.float64())),
            "ys": pa.array(ys.tolist(), pa.list_(pa.float64())),
        }
    )


def test_pip_bbox_matches_oracle(ray_session):
    import ray

    pts, boxes = _points(), _boxes()
    out = pip.broadcast_pip_join(
        ray.data.from_arrow(pts), boxes, cell_res=14, exact=False
    ).to_pandas()
    got = set(map(tuple, out[["point_id", "feature_id"]].values.tolist()))
    px, py = pts["x"].to_numpy(), pts["y"].to_numpy()
    b = np.stack([boxes[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")], axis=1)
    expected = {
        (i, j)
        for i in range(N_PTS)
        for j in range(N_FEAT)
        if b[j, 0] <= px[i] < b[j, 2] and b[j, 1] <= py[i] < b[j, 3]
    }
    assert got == expected


def test_pip_exact_triangles(ray_session):
    import ray

    pts, tris = _points(), _tri_rings()
    out = pip.broadcast_pip_join(
        ray.data.from_arrow(pts), tris, cell_res=14, exact=True
    ).to_pandas()
    got = set(map(tuple, out[["point_id", "feature_id"]].values.tolist()))
    px, py = pts["x"].to_numpy(), pts["y"].to_numpy()
    expected = set()
    for j in range(N_FEAT):
        xs = np.asarray(tris["xs"][j].as_py())
        ys = np.asarray(tris["ys"][j].as_py())
        # oracle: barycentric sign test for the right triangle
        x0, y0, r = xs[0], ys[0], xs[1] - xs[0]
        inside = (px >= x0) & (py >= y0) & ((px - x0) + (py - y0) < r)
        for i in np.nonzero(inside)[0]:
            expected.add((int(i), j))
    # even-odd boundary pixels can differ at edges; interior must match
    sym_diff = got ^ expected
    assert len(sym_diff) <= 2
    assert len(got & expected) >= len(expected) - 2


def test_knn_matches_bruteforce(ray_session):
    import ray

    pts = _points()
    feats = pa.table(
        {
            "feature_id": pa.array(np.arange(N_FEAT, dtype=np.int64)),
            "cx": pa.array(RNG.uniform(0, 3000, N_FEAT)),
            "cy": pa.array(RNG.uniform(0, 3000, N_FEAT)),
        }
    )
    k = 4
    out = (
        knn.broadcast_knn_join(ray.data.from_arrow(pts), feats, k=k, cell_res=14)
        .to_pandas()
        .sort_values(["point_id", "rank"])
    )
    px, py = pts["x"].to_numpy(), pts["y"].to_numpy()
    fx, fy = feats["cx"].to_numpy(), feats["cy"].to_numpy()
    fid = feats["feature_id"].to_numpy()
    d2 = (px[:, None] - fx[None, :]) ** 2 + (py[:, None] - fy[None, :]) ** 2
    for i in range(N_PTS):
        order = np.lexsort((fid, d2[i]))[:k]
        got = out[out.point_id == i]["feature_id"].tolist()
        assert got == fid[order].tolist(), f"point {i}"


def test_knn_sparse_world_expands_rings(ray_session):
    import ray

    # 3 far-apart features: ring expansion must travel many cells
    pts = pa.table(
        {
            "point_id": pa.array([0], pa.int64()),
            "x": pa.array([10.0]),
            "y": pa.array([10.0]),
        }
    )
    feats = pa.table(
        {
            "feature_id": pa.array([1, 2, 3], pa.int64()),
            "cx": pa.array([5000.0, 9000.0, 100.0]),
            "cy": pa.array([5000.0, 100.0, 8000.0]),
        }
    )
    out = (
        knn.broadcast_knn_join(ray.data.from_arrow(pts), feats, k=2, cell_res=16)
        .to_pandas()
        .sort_values("rank")
    )
    assert out["feature_id"].tolist() == [1, 3]  # see oracle test below


def test_knn_sparse_oracle():
    d = {
        1: (5000.0 - 10) ** 2 + (5000.0 - 10) ** 2,
        2: (9000.0 - 10) ** 2 + (100.0 - 10) ** 2,
        3: (100.0 - 10) ** 2 + (8000.0 - 10) ** 2,
    }
    best2 = sorted(d, key=lambda j: (d[j], j))[:2]
    assert best2 == [1, 3]
