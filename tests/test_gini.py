"""Per-group Gini sufficient-statistics tests — brute-force twin."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from conftest import small_blocks
from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.gini import group_gini


def _brute(groups, vals):
    out = {}
    for g in sorted(set(groups)):
        xs = sorted(v for gg, v in zip(groups, vals) if gg == g)
        n = len(xs)
        num = sum((2 * (i + 1) - n - 1) * x for i, x in enumerate(xs))
        out[g] = (n, sum(xs), num)
    return out


def _ds(groups, vals, n_blocks=4):
    t = pa.table(
        {
            "g": pa.array(np.array(groups, np.int64)),
            "v": pa.array(np.array(vals, np.int64)),
        }
    )
    return ray.data.from_arrow(t).repartition(n_blocks)


def _run(groups, vals, n_blocks=4):
    rows = group_gini(_ds(groups, vals, n_blocks), "g", "v").take_all()
    return {r["grp"]: (r["n"], r["sum_v"], r["gini_num"]) for r in rows}


def test_gini_matches_brute_random():
    rng = np.random.RandomState(2)
    groups = rng.randint(0, 7, 400).tolist()
    vals = rng.randint(-50, 500, 400).tolist()
    assert _run(groups, vals) == _brute(groups, vals)


def test_gini_all_equal_values_is_zero():
    got = _run([1] * 10, [42] * 10)
    assert got == {1: (10, 420, 0)}


def test_gini_extreme_concentration():
    # one holder of everything: num = (n-1) * total
    got = _run([0] * 5, [0, 0, 0, 0, 100])
    assert got == {0: (5, 100, 400)}


def test_gini_ties_are_order_invariant_and_bucket_invariant(ray_session):
    groups = [3, 3, 3, 3, 9, 9]
    vals = [5, 5, 5, 7, 1, 1]
    want = _brute(groups, vals)
    # the bucket count follows the input's bytes over the target block size
    narrow = _ds(groups, vals, 3)
    with small_blocks(narrow):
        assert shuffle_width(narrow) != shuffle_width(_ds(groups, vals, 97))
        assert _run(groups, vals, n_blocks=97) == want
    assert _run(groups, vals, n_blocks=3) == want
