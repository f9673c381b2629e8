"""Triangle counting tests vs a brute-force Python oracle."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pyarrow as pa
import ray

from solaris_ray.stages.triangles import triangle_counts


def _edges_ds(pairs, n_blocks=1):
    a = np.array([p[0] for p in pairs], np.int64)
    b = np.array([p[1] for p in pairs], np.int64)
    d = ray.data.from_arrow(pa.table({"a": pa.array(a), "b": pa.array(b)}))
    return d.repartition(n_blocks) if n_blocks > 1 else d


def _brute(pairs):
    es = set(map(tuple, pairs))
    nodes = sorted({x for p in pairs for x in p})
    adj = {v: set() for v in nodes}
    for x, y in es:
        adj[x].add(y); adj[y].add(x)
    cnt = {}
    for x, y, z in combinations(nodes, 3):
        if y in adj[x] and z in adj[x] and z in adj[y]:
            for v in (x, y, z):
                cnt[v] = cnt.get(v, 0) + 1
    return cnt


def _run(pairs, **kw):
    got = triangle_counts(_edges_ds(pairs), **kw).to_pandas()
    if got.empty:
        return {}
    return dict(zip(got["node"], got["tri_cnt"]))


def test_triangles_random_graph(ray_session):
    rng = np.random.default_rng(21)
    pairs = sorted(
        {tuple(sorted(p)) for p in rng.integers(0, 40, (160, 2)) if p[0] != p[1]}
    )
    assert _run(pairs) == _brute(pairs)


def test_triangles_clique_plus_star(ray_session):
    # skewed degrees: a 10-clique (120 triangles per node-pairing rules)
    # plus a hub with 20 leaves (star adds no triangles)
    clique = [tuple(sorted(p)) for p in combinations(range(10), 2)]
    star = [(100, 200 + i) for i in range(20)]
    pairs = clique + star
    got = _run(pairs)
    exp = _brute(pairs)
    assert got == exp
    assert all(got[v] == 36 for v in range(10))  # C(9,2)


def test_triangles_none(ray_session):
    # bipartite graph: no triangles -> empty output
    pairs = [(i, 10 + j) for i in range(5) for j in range(5)]
    assert _run(pairs) == {}


def test_triangles_width_invariance(ray_session):
    # the shuffle width follows the input's bytes over the target block size; the
    # counts do not
    from conftest import small_blocks
    from solaris_ray.stages._buckets import shuffle_width

    rng = np.random.default_rng(8)
    pairs = sorted(
        {tuple(sorted(p)) for p in rng.integers(0, 30, (200, 2)) if p[0] != p[1]}
    )
    want = _brute(pairs)
    narrow = _edges_ds(pairs, n_blocks=3)
    with small_blocks(narrow):
        wide = _edges_ds(pairs, n_blocks=97)
    assert shuffle_width(narrow) != shuffle_width(wide)
    for edges in (narrow, wide):
        got = triangle_counts(edges).to_pandas()
        assert dict(zip(got["node"], got["tri_cnt"])) == want
