"""Integer micro-unit PageRank tests.

Oracle: the identical int64 recurrence run densely in numpy on the
same edge list — exact equality, not allclose.  Covers asymmetric
degrees, parallel edges, dangling nodes (mass leak), self-loops,
iters=0 passthrough, and the non-negative-id guard.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.pagerank import pagerank


def _edges_ds(pairs, n_blocks=3):
    s = np.array([p[0] for p in pairs], np.int64)
    d = np.array([p[1] for p in pairs], np.int64)
    t = pa.table({"src": pa.array(s), "dst": pa.array(d)})
    return ray.data.from_arrow(t).repartition(n_blocks)


def _dense_twin(pairs, iters, scale=10**9, dn=85, dd=100):
    """Same recurrence, densely: dict-of-int arithmetic only."""
    nodes = sorted({x for p in pairs for x in p})
    out = {}
    for s, _ in pairs:
        out[s] = out.get(s, 0) + 1
    r = {v: scale for v in nodes}
    teleport = (scale * (dd - dn)) // dd
    for _ in range(iters):
        acc = {v: 0 for v in nodes}
        for s, d in pairs:
            acc[d] += r[s] // out[s]
        r = {v: teleport + (dn * acc[v]) // dd for v in nodes}
    return r


def _run(pairs, iters, **kw):
    res = pagerank(_edges_ds(pairs), iters=iters, **kw).sort("node").take_all()
    return {row["node"]: row["pr_micro"] for row in res}


def test_pagerank_exact_vs_dense_twin():
    # asymmetric chord graph incl. a hub (everyone links node 0)
    pairs = [(i, (i + 1) % 8) for i in range(8)]
    pairs += [(i, 0) for i in range(1, 8)]
    pairs += [(2, 5), (3, 6), (6, 1)]
    for iters in (1, 3, 6):
        assert _run(pairs, iters) == _dense_twin(pairs, iters)


def test_pagerank_dangling_and_parallel_edges():
    # 4 -> nothing (dangling, reachable); duplicate edge 1->2 counts twice
    pairs = [(0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (0, 4)]
    got = _run(pairs, 4)
    assert got == _dense_twin(pairs, 4)
    teleport = (10**9 * 15) // 100
    # node 0 has no in-links: pure teleport after round 1
    assert got[0] == teleport
    # dangling node 4 still accumulates in-link mass above teleport
    assert got[4] > teleport


def test_pagerank_self_loop_and_zero_iters():
    pairs = [(0, 0), (0, 1), (1, 0)]
    assert _run(pairs, 2) == _dense_twin(pairs, 2)
    # iters=0: every node at the initial mass
    assert _run(pairs, 0) == {0: 10**9, 1: 10**9}


def test_pagerank_many_buckets_invariance(ray_session):
    pairs = [(i, (i * 3 + 1) % 50) for i in range(50)]
    pairs += [(i, (i + 7) % 50) for i in range(0, 50, 2)]
    want = _dense_twin(pairs, 5)
    # the bucket count follows the input's block count
    narrow, wide = _edges_ds(pairs, n_blocks=7), _edges_ds(pairs, n_blocks=128)
    assert shuffle_width(narrow) != shuffle_width(wide)
    for edges in (narrow, wide):
        res = pagerank(edges, iters=5).sort("node").take_all()
        assert {row["node"]: row["pr_micro"] for row in res} == want


def test_pagerank_rejects_negative_ids():
    # the ValueError surfaces wrapped in RayTaskError; match the message
    with pytest.raises(Exception, match="non-negative"):
        pagerank(_edges_ds([(-1, 2)]), iters=1).take_all()


def test_pagerank_empty_edges_keep_columns(ray_session):
    empty = pa.table({"src": pa.array([], pa.int64()),
                      "dst": pa.array([], pa.int64())})
    out = pagerank(ray.data.from_arrow(empty), iters=2)
    assert out.schema().names == ["node", "pr_micro"]
    assert out.count() == 0
