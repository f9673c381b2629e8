"""link_prediction_scores: common-neighbor + RA index on tiny graphs."""

import numpy as np
import pyarrow as pa
import pytest

from solaris_ray.stages.linkpred import link_prediction_scores


def _ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


def _rows(ds):
    tbls = list(ds.iter_batches(batch_format="pyarrow"))
    out = pa.concat_tables(tbls).to_pylist() if tbls else []
    return {(r["u"], r["w"]): (r["cn"], r["ra_e9"]) for r in out}


def test_square_graph(ray_session):
    # square 0-1-2-3-0: non-edges are the diagonals, each with 2 common
    # neighbors of degree 2 -> ra = 2 * (1e9 // 2)
    e = _ds(pa.table({"a": pa.array([0, 1, 2, 0], pa.int64()),
                      "b": pa.array([1, 2, 3, 3], pa.int64())}))
    got = _rows(link_prediction_scores(e))
    assert got == {(0, 2): (2, 1_000_000_000), (1, 3): (2, 1_000_000_000)}


def test_star_plus_duplicate_edges(ray_session):
    # star center 0 with leaves 1,2,3 (edge 0-1 duplicated: set semantics)
    e = _ds(pa.table({"a": pa.array([0, 0, 0, 0], pa.int64()),
                      "b": pa.array([1, 2, 3, 1], pa.int64())}))
    got = _rows(link_prediction_scores(e))
    share = 1_000_000_000 // 3  # deg(center) = 3
    assert got == {(1, 2): (1, share), (1, 3): (1, share), (2, 3): (1, share)}


def test_triangle_has_no_candidates(ray_session):
    e = _ds(pa.table({"a": pa.array([0, 1, 0], pa.int64()),
                      "b": pa.array([1, 2, 2], pa.int64())}))
    assert _rows(link_prediction_scores(e)) == {}


def _random_pairs(seed: int, n: int, m: int) -> set:
    rng = np.random.RandomState(seed)
    pairs = set()
    while len(pairs) < m:
        a, b = rng.randint(0, n, 2)
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return pairs


def _pairs_ds(pairs, n_blocks=1):
    a = np.array([p[0] for p in sorted(pairs)], np.int64)
    b = np.array([p[1] for p in sorted(pairs)], np.int64)
    d = _ds(pa.table({"a": pa.array(a), "b": pa.array(b)}))
    return d.repartition(n_blocks) if n_blocks > 1 else d


def _brute(pairs, n):
    adj = {i: set() for i in range(n)}
    for x, y in pairs:
        adj[x].add(y)
        adj[y].add(x)
    want = {}
    for u in range(n):
        for w in range(u + 1, n):
            if (u, w) in pairs:
                continue
            common = adj[u] & adj[w]
            if common:
                want[(u, w)] = (
                    len(common),
                    sum(1_000_000_000 // len(adj[z]) for z in common),
                )
    return want


def test_matches_bruteforce_random(ray_session):
    pairs = _random_pairs(3, 40, 80)
    assert _rows(link_prediction_scores(_pairs_ds(pairs))) == _brute(pairs, 40)


def test_width_invariance(ray_session):
    # the shuffle width follows the input's bytes over the target block size; the
    # scores do not
    from conftest import small_blocks
    from solaris_ray.stages._buckets import shuffle_width

    pairs = _random_pairs(5, 60, 150)
    want = _brute(pairs, 60)
    narrow = _pairs_ds(pairs, n_blocks=3)
    with small_blocks(narrow):
        wide = _pairs_ds(pairs, n_blocks=97)
    assert shuffle_width(narrow) != shuffle_width(wide)
    for edges in (narrow, wide):
        assert _rows(link_prediction_scores(edges)) == want


def test_hub_cap_raises(ray_session):
    leaves = np.arange(1, 12, dtype=np.int64)
    e = _ds(pa.table({"a": pa.array(np.zeros(11, np.int64)),
                      "b": pa.array(leaves)}))
    with pytest.raises(Exception, match="max_center_degree"):
        _rows(link_prediction_scores(e, max_center_degree=10))
