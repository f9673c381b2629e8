"""Generic hash join tests vs pandas merge."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages.relational import hash_join


def _mk(left_rows, right_rows):
    l = ray.data.from_arrow(
        pa.table({"lk": pa.array(np.asarray([r[0] for r in left_rows], np.int64)),
                  "lv": pa.array([r[1] for r in left_rows])})
    )
    r = ray.data.from_arrow(
        pa.table({"rk": pa.array(np.asarray([r[0] for r in right_rows], np.int64)),
                  "rv": pa.array([r[1] for r in right_rows])})
    )
    return l, r


def _pd(left_rows, right_rows, how):
    l = pd.DataFrame(left_rows, columns=["lk", "lv"])
    r = pd.DataFrame(right_rows, columns=["rk", "rv"])
    return l.merge(r, left_on="lk", right_on="rk", how=how)


def _norm(df):
    df = df.fillna({"lk": -1, "rk": -1, "lv": "", "rv": ""})
    return sorted(map(tuple, df[["lk", "lv", "rk", "rv"]].itertuples(index=False)))


def test_hash_join_modes_match_pandas(ray_session):
    rng = np.random.default_rng(27)
    left = [(int(k), f"L{i}") for i, k in enumerate(rng.integers(0, 20, 60))]
    right = [(int(k), f"R{i}") for i, k in enumerate(rng.integers(5, 25, 40))]
    for how in ("inner", "left", "outer"):
        l, r = _mk(left, right)
        got = hash_join(l.repartition(3), r.repartition(2), "lk", "rk",
                        how=how).to_pandas()
        assert _norm(got) == _norm(_pd(left, right, how)), how


def test_hash_join_many_to_many(ray_session):
    left = [(1, "a"), (1, "b"), (2, "c")]
    right = [(1, "x"), (1, "y"), (3, "z")]
    l, r = _mk(left, right)
    got = hash_join(l, r, "lk", "rk", how="outer").to_pandas()
    assert len(got) == 2 * 2 + 1 + 1  # 4 matches + left-only 2 + right-only 3


def test_broadcast_path_matches_shuffle(ray_session):
    rng = np.random.default_rng(33)
    left = [(int(k), f"L{i}") for i, k in enumerate(rng.integers(0, 30, 120))]
    right = [(int(k), f"R{i}") for i, k in enumerate(rng.integers(10, 40, 25))]
    for how in ("inner", "left"):
        l, r = _mk(left, right)
        a = hash_join(l.repartition(4), r, "lk", "rk", how=how,
                      strategy="shuffle").to_pandas()
        l2, r2 = _mk(left, right)
        b = hash_join(l2.repartition(4), r2, "lk", "rk", how=how,
                      strategy="broadcast").to_pandas()
        assert _norm(a) == _norm(b), how
    # auto picks broadcast for a small right side and still matches
    l3, r3 = _mk(left, right)
    c = hash_join(l3, r3, "lk", "rk", how="inner", strategy="auto").to_pandas()
    assert _norm(c) == _norm(_pd(left, right, "inner"))


_SQL_HOW = {"inner": "INNER", "left": "LEFT", "outer": "FULL OUTER"}


@pytest.mark.parametrize("right_keys", [[1, 2], [None, 1, 2]], ids=["right-valid", "right-null"])
@pytest.mark.parametrize("how,strategy", [
    ("inner", "shuffle"), ("left", "shuffle"), ("outer", "shuffle"),
    ("inner", "broadcast"), ("left", "broadcast"),
])
def test_null_key_never_matches(ray_session, how, strategy, right_keys):
    # SQL semantics: a null key matches nothing, not even a null key;
    # left and outer keep such rows unmatched, inner drops them
    left = pa.table({"lk": pa.array([1, None, 2], pa.int64()), "lv": ["a", "b", "c"]})
    right = pa.table({"rk": pa.array(right_keys, pa.int64()),
                      "rv": [f"r{i}" for i in range(len(right_keys))]})
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right), "lk", "rk",
                    how=how, strategy=strategy).to_pandas()
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.execute(f"SELECT * FROM l {_SQL_HOW[how]} JOIN r ON lk = rk").df()
    assert _norm(got) == _norm(want)
