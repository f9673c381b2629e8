"""Gaps-and-islands interval-merge tests — brute-force union twin."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.intervals import merge_intervals


def _brute(keys, ss, ee):
    out = {}
    for k in sorted(set(keys)):
        ivs = sorted(
            (s, e) for kk, s, e in zip(keys, ss, ee) if kk == k
        )
        islands = []
        for s, e in ivs:
            if islands and s <= islands[-1][1]:
                islands[-1][1] = max(islands[-1][1], e)
            else:
                islands.append([s, e])
        lens = [e - s for s, e in islands]
        out[k] = (len(islands), sum(lens), max(lens))
    return out


def _ds(keys, ss, ee, n_blocks=4):
    t = pa.table(
        {
            "key": pa.array(np.array(keys, np.int64)),
            "s": pa.array(np.array(ss, np.int64)),
            "e": pa.array(np.array(ee, np.int64)),
        }
    )
    return ray.data.from_arrow(t).repartition(n_blocks)


def _run(keys, ss, ee, n_blocks=4):
    rows = merge_intervals(_ds(keys, ss, ee, n_blocks)).take_all()
    return {r["key"]: (r["n_islands"], r["covered"], r["max_island"]) for r in rows}


def test_intervals_matches_brute_random():
    rng = np.random.RandomState(4)
    keys = rng.randint(0, 9, 300).tolist()
    ss = rng.randint(0, 1000, 300).tolist()
    ee = [s + int(d) for s, d in zip(ss, rng.randint(0, 120, 300))]
    assert _run(keys, ss, ee) == _brute(keys, ss, ee)


def test_intervals_touching_merge_and_nesting():
    # [0,10] touches [10,20] -> one island; [2,5] nested; [30,30] point
    keys = [1, 1, 1, 1]
    ss = [0, 10, 2, 30]
    ee = [10, 20, 5, 30]
    assert _run(keys, ss, ee) == {1: (2, 20, 20)}


def test_intervals_disjoint_and_multi_key():
    keys = [1, 1, 2]
    ss = [0, 100, 5]
    ee = [10, 110, 6]
    assert _run(keys, ss, ee) == {1: (2, 20, 10), 2: (1, 1, 1)}


def test_intervals_bucket_invariance(ray_session):
    rng = np.random.RandomState(8)
    keys = rng.randint(0, 5, 200).tolist()
    ss = rng.randint(0, 500, 200).tolist()
    ee = [s + int(d) for s, d in zip(ss, rng.randint(0, 60, 200))]
    want = _brute(keys, ss, ee)
    # the bucket count follows the input's block count
    assert shuffle_width(_ds(keys, ss, ee, 2)) != shuffle_width(_ds(keys, ss, ee, 128))
    assert _run(keys, ss, ee, n_blocks=2) == want
    assert _run(keys, ss, ee, n_blocks=128) == want


def test_intervals_rejects_end_before_start():
    with pytest.raises(Exception, match="end < start"):
        _run([1], [5], [4])
