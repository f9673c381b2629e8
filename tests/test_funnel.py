"""Funnel (ordered step matching) tests.

Oracle: a naive per-user Python scan implementing the same
first-touch / strictly-increasing-timestamp semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages._buckets import shuffle_width
from solaris_ray.stages.funnel import funnel

_I64 = np.int64


def _events_ds(rows, n_blocks=3):
    # rows: (user, type, ts_us)
    u = np.array([r[0] for r in rows], _I64)
    ty = [r[1] for r in rows]
    ts = np.array([r[2] for r in rows], "datetime64[us]")
    t = pa.table(
        {
            "user_id": pa.array(u),
            "event_type": pa.array(ty),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    return ray.data.from_arrow(t).repartition(n_blocks)


def _naive(rows, steps):
    users = sorted({r[0] for r in rows})
    out = {}
    for user in users:
        mine = sorted((r[2], r[1]) for r in rows if r[0] == user)
        prev, depth, times = None, 0, []
        for s in steps:
            cand = [t for t, ty in mine if ty == s and (prev is None or t > prev)]
            if cand:
                prev = min(cand)
                depth += 1
                times.append(prev)
            else:
                times.append(-1)
                prev = None
                break
        times += [-1] * (len(steps) - len(times))
        out[user] = (depth, *times)
    return out


def _run(rows, steps, n_blocks=3):
    res = funnel(_events_ds(rows, n_blocks), steps).sort("user_id").take_all()
    return {
        r["user_id"]: (r["depth"], *[r[f"t{i + 1}_us"] for i in range(len(steps))])
        for r in res
    }


STEPS = ["view", "click", "purchase"]


def test_funnel_basic_and_depth0():
    rows = [
        (1, "view", 10), (1, "click", 20), (1, "purchase", 30),   # full
        (2, "click", 5), (2, "view", 10), (2, "click", 15),       # view->click
        (3, "error", 7),                                          # depth 0
        (4, "purchase", 1), (4, "view", 2),                       # view only
    ]
    got = _run(rows, STEPS)
    assert got == _naive(rows, STEPS)
    assert got[1][0] == 3 and got[2][0] == 2 and got[3][0] == 0 and got[4][0] == 1


def test_funnel_strict_ordering_on_ties():
    # click at the SAME microsecond as the matched view must not chain
    rows = [(1, "view", 10), (1, "click", 10), (2, "view", 10), (2, "click", 11)]
    got = _run(rows, STEPS)
    assert got[1] == (1, 10, -1, -1)
    assert got[2] == (2, 10, 11, -1)


def test_funnel_first_touch_not_best_path():
    # earliest view (t=10) blocks the t=5 click even though the pair
    # (view@20, click@25) would also exist — first-touch semantics
    rows = [(1, "click", 5), (1, "view", 10), (1, "view", 20), (1, "click", 25)]
    assert _run(rows, STEPS)[1] == (2, 10, 25, -1)


def test_funnel_bucket_invariance_random(ray_session):
    rng = np.random.default_rng(7)
    types = ["view", "click", "purchase", "error", "signup"]
    rows = [
        (int(rng.integers(0, 40)), types[int(rng.integers(0, 5))],
         int(rng.integers(0, 1000)))
        for _ in range(2000)
    ]
    want = _naive(rows, STEPS)
    # the bucket count follows the input's block count
    assert shuffle_width(_events_ds(rows, 5)) != shuffle_width(_events_ds(rows, 97))
    assert _run(rows, STEPS, n_blocks=5) == want
    assert _run(rows, STEPS, n_blocks=97) == want


def test_funnel_rejects_bad_steps():
    with pytest.raises(ValueError):
        funnel(_events_ds([(1, "view", 1)]), [])
    with pytest.raises(ValueError):
        funnel(_events_ds([(1, "view", 1)]), ["view", "view"])
