"""k-core: sequential-peel twin, plan parity, degeneracies."""

import contextlib

import numpy as np
import pyarrow as pa
import pytest
import ray

from conftest import small_blocks
from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.kcore import kcore


def _ref_kcore(src, dst, k):
    """Sequential peel over an adjacency dict — the textbook twin."""
    adj = {}
    for s, d in zip(src.tolist(), dst.tolist()):
        if s == d:
            continue
        adj.setdefault(s, set()).add(d)
        adj.setdefault(d, set()).add(s)
    changed = True
    while changed:
        changed = False
        for n in list(adj):
            if len(adj[n]) < k:
                for nb in adj.pop(n):
                    adj[nb].discard(n)
                changed = True
    return {n: len(v) for n, v in adj.items() if v}


def _edges(src, dst):
    return ray.data.from_arrow(
        pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    ).repartition(4)


def _run(src, dst, k, parts=None, **kw):
    # parts: blocks of a parts-th of the edges' bytes, which widen the
    # dedupe shuffle and, once the deduped edges fill more than one,
    # force the peel rounds
    with small_blocks(_edges(src, dst), parts) if parts else contextlib.nullcontext():
        out = kcore(_edges(src, dst), k=k, **kw).to_pandas()
    return dict(zip(out.get("node", []), out.get("deg", [])))


@pytest.mark.parametrize("seed,k", [(0, 3), (1, 4), (2, 5)])
def test_matches_sequential(ray_session, seed, k):
    rng = np.random.default_rng(seed)
    n, m = 300, 1600
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    assert _run(src, dst, k) == _ref_kcore(src, dst, k)


def test_plan_parity(ray_session):
    rng = np.random.default_rng(7)
    src = rng.integers(0, 200, 900).astype(np.int64)
    dst = rng.integers(0, 200, 900).astype(np.int64)
    s_single, s_rounds = {}, {}
    a = _run(src, dst, 4, stats_out=s_single)
    b = _run(src, dst, 4, parts=8, stats_out=s_rounds)
    assert s_single["plan"] == "single-task"
    assert s_rounds["plan"] == "peel-rounds"
    assert a == b


def test_one_bucket_after_empty_dedupe_buckets(ray_session):
    # a triangle with a tail, each edge 40 times: at an eighth of the
    # input's bytes the dedupe shuffle is wider than the graph's 4
    # nodes, so it leaves empty buckets, while the 8 deduped rows still
    # fit one block; the one-bucket plan must return the rounds' rows
    src = np.repeat(np.array([0, 1, 2, 2], np.int64), 40)
    dst = np.repeat(np.array([1, 2, 0, 3], np.int64), 40)
    with small_blocks(_edges(src, dst)):
        assert shuffle_width(_edges(src, dst)) > 4
    s_single, s_rounds = {}, {}
    a = _run(src, dst, 2, parts=8, stats_out=s_single)
    b = _run(src, dst, 2, parts=32, stats_out=s_rounds)
    assert s_single["plan"] == "single-task"
    assert s_rounds["plan"] == "peel-rounds"
    assert a == b == _ref_kcore(src, dst, 2) == {0: 2, 1: 2, 2: 2}


def test_triangle_and_selfloops(ray_session):
    src = np.array([0, 1, 2, 3, 3], np.int64)
    dst = np.array([1, 2, 0, 3, 0], np.int64)  # triangle + self-loop + tail
    got = _run(src, dst, 2)
    assert got == {0: 2, 1: 2, 2: 2}
    assert _run(src, dst, 3) == {}


def test_k_validation(ray_session):
    with pytest.raises(ValueError):
        kcore(None, k=0)
