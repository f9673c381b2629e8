"""Multi-source BFS hop-distance tests.

Oracle: a dense dict-based Dijkstra-on-unit-weights (plain BFS) over
the same edge list — exact equality.  Covers multi-source min,
unreachable nodes, isolated seeds, directedness, cycles, bucket-count
invariance, the max_rounds valve, and the non-negative-id guard.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.bfs import bfs_hops


def _ds_edges(pairs, n_blocks=3):
    s = np.array([p[0] for p in pairs], np.int64)
    d = np.array([p[1] for p in pairs], np.int64)
    t = pa.table({"src": pa.array(s), "dst": pa.array(d)})
    return ray.data.from_arrow(t).repartition(n_blocks)


def _ds_seeds(nodes, n_blocks=2):
    t = pa.table({"node": pa.array(np.array(nodes, np.int64))})
    return ray.data.from_arrow(t).repartition(n_blocks)


def _dense_twin(pairs, seeds):
    from collections import deque

    adj = {}
    for s, d in pairs:
        adj.setdefault(s, []).append(d)
    dist = {s: 0 for s in seeds}
    q = deque(seeds)
    while q:
        u = q.popleft()
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def _run(pairs, seeds, **kw):
    res = bfs_hops(_ds_edges(pairs), _ds_seeds(seeds), **kw).take_all()
    return {row["node"]: row["hops"] for row in res}


def test_bfs_single_source_chain_and_unreachable():
    # 0 -> 1 -> 2 -> 3; 9 -> 3 (node 9 unreachable from 0)
    pairs = [(0, 1), (1, 2), (2, 3), (9, 3)]
    got = _run(pairs, [0])
    assert got == {0: 0, 1: 1, 2: 2, 3: 3}


def test_bfs_multi_source_takes_min_and_isolated_seed():
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (7, 4)]
    # seed 7 shortcuts node 4; seed 42 touches no edge but is emitted
    got = _run(pairs, [0, 7, 42])
    assert got == _dense_twin(pairs, [0, 7, 42]) | {42: 0}
    assert got[4] == 1


def test_bfs_directed_cycles_converge():
    pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)]
    got = _run(pairs, [0])
    assert got == _dense_twin(pairs, [0])


def test_bfs_bucket_invariance_random_graph(ray_session):
    rng = np.random.RandomState(7)
    pairs = [
        (int(a), int(b))
        for a, b in zip(rng.randint(0, 60, 200), rng.randint(0, 60, 200))
        if a != b
    ]
    seeds = [0, 17, 33]
    want = _dense_twin(pairs, seeds)
    # the bucket count follows the input's block count
    narrow, wide = _ds_edges(pairs, n_blocks=5), _ds_edges(pairs, n_blocks=128)
    assert shuffle_width(narrow) != shuffle_width(wide)
    # force the frontier-rounds plan: the width only matters there
    for edges in (narrow, wide):
        res = bfs_hops(edges, _ds_seeds(seeds), small_edge_limit=0).take_all()
        assert {row["node"]: row["hops"] for row in res} == want


def test_bfs_plan_parity_single_vs_rounds():
    # both physical plans must agree exactly on the same graph
    rng = np.random.RandomState(11)
    pairs = [
        (int(a), int(b))
        for a, b in zip(rng.randint(0, 80, 300), rng.randint(0, 80, 300))
        if a != b
    ]
    seeds = [1, 40, 79]
    s_single, s_rounds = {}, {}
    got_single = _run(pairs, seeds, stats_out=s_single)
    got_rounds = _run(pairs, seeds, small_edge_limit=0, stats_out=s_rounds)
    assert s_single["plan"] == "single-task"
    assert s_rounds["plan"] == "frontier-rounds"
    assert got_single == got_rounds == _dense_twin(pairs, seeds)


def test_bfs_max_rounds_valve_raises():
    pairs = [(i, i + 1) for i in range(10)]
    with pytest.raises(Exception, match="max_rounds"):
        bfs_hops(
            _ds_edges(pairs), _ds_seeds([0]), max_rounds=3, small_edge_limit=0
        ).take_all()


def test_bfs_rejects_negative_ids():
    with pytest.raises(Exception, match="non-negative"):
        bfs_hops(_ds_edges([(-1, 2)]), _ds_seeds([0])).take_all()


@pytest.mark.parametrize("limit", [500_000, 0])
def test_bfs_empty_seeds_keep_columns(ray_session, limit):
    # both plans return the declared columns, not a schema-less dataset
    # (checked on schema(): to_pandas() skips empty blocks, so it has no
    # columns for any empty dataset)
    out = bfs_hops(
        _ds_edges([(0, 1), (1, 2)]), _ds_seeds([]), small_edge_limit=limit
    )
    assert out.schema().names == ["node", "hops"]
    assert out.count() == 0
