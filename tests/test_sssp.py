"""Weighted SSSP: exactness vs scipy-free Dijkstra twin, plan parity,
input validation."""

import heapq

import numpy as np
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages.sssp import sssp_dist


def _dijkstra(edges, seeds):
    adj = {}
    for s, d, w in edges:
        adj.setdefault(s, []).append((d, w))
    dist = {s: 0 for s in seeds}
    pq = [(0, s) for s in seeds]
    heapq.heapify(pq)
    while pq:
        dd, u = heapq.heappop(pq)
        if dd > dist.get(u, 1 << 62):
            continue
        for v, w in adj.get(u, []):
            nd = dd + w
            if nd < dist.get(v, 1 << 62):
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def _fixture(n=400, seed=3):
    rng = np.random.default_rng(seed)
    m = 5 * n
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.integers(0, 20, src.size).astype(np.int64)  # zero weights ok
    seeds = np.unique(rng.integers(0, n, 5)).astype(np.int64)
    return src, dst, w, seeds


def _run(src, dst, w, seeds, **kw):
    e = ray.data.from_arrow(
        pa.table({"src": pa.array(src), "dst": pa.array(dst), "w": pa.array(w)})
    )
    s = ray.data.from_arrow(pa.table({"node": pa.array(seeds)}))
    out = sssp_dist(e, s, **kw).to_pandas().sort_values("node")
    return dict(zip(out["node"], out["dist"]))


def test_sssp_matches_dijkstra_single_task(ray_session):
    src, dst, w, seeds = _fixture()
    got = _run(src, dst, w, seeds)
    want = _dijkstra(zip(src.tolist(), dst.tolist(), w.tolist()), seeds.tolist())
    assert got == want


def test_sssp_plan_parity(ray_session):
    src, dst, w, seeds = _fixture(n=200, seed=9)
    small = _run(src, dst, w, seeds, small_edge_limit=10**9)
    stats = {}
    rounds = _run(
        src, dst, w, seeds, small_edge_limit=0, stats_out=stats
    )
    assert stats["plan"] == "frontier-rounds"
    assert small == rounds


def test_sssp_rejects_negative_weight(ray_session):
    e = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([0], pa.int64()),
                "dst": pa.array([1], pa.int64()),
                "w": pa.array([-1], pa.int64()),
            }
        )
    )
    s = ray.data.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))
    with pytest.raises(Exception, match="non-negative weights"):
        sssp_dist(e, s).to_pandas()


def test_sssp_unreachable_absent(ray_session):
    e = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([0, 5], pa.int64()),
                "dst": pa.array([1, 6], pa.int64()),
                "w": pa.array([4, 2], pa.int64()),
            }
        )
    )
    s = ray.data.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))
    got = (
        sssp_dist(e, s).to_pandas().sort_values("node").set_index("node")["dist"]
    )
    assert dict(got) == {0: 0, 1: 4}


@pytest.mark.parametrize("limit", [500_000, 0])
def test_sssp_overflow_raises(ray_session, limit):
    # 0 -> 1 -> 2 -> 3 with weights 2^62, 2^62, 1: dist(2) = 2^63 does
    # not fit int64 and must not wrap to a negative distance
    src = np.array([0, 1, 2], np.int64)
    dst = np.array([1, 2, 3], np.int64)
    w = np.array([2**62, 2**62, 1], np.int64)
    with pytest.raises(ValueError, match="overflows int64"):
        _run(src, dst, w, np.array([0], np.int64), small_edge_limit=limit)
