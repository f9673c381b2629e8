"""Retention-cohort and NTILE tests.

Oracles: naive pandas/python twins implementing the identical
semantics (first-seen-week cohorts / SQL NTILE bucket-size rule).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from solaris_ray.stages.cohorts import retention_cohorts, _WEEK_US
from solaris_ray.stages.ntile import group_ntile, group_percent_rank


def _events_ds(rows, n_blocks=3):
    # rows: (user, week) — expanded to a timestamp inside that week
    u = np.array([r[0] for r in rows], np.int64)
    ts = np.array([r[1] * _WEEK_US + (i % 7) * 86400 * 10**6
                   for i, r in enumerate(rows)], "datetime64[us]")
    t = pa.table({"user_id": pa.array(u), "ts": pa.array(ts, pa.timestamp("us"))})
    return ray.data.from_arrow(t).repartition(n_blocks)


def _naive_retention(rows):
    df = pd.DataFrame(rows, columns=["u", "wk"]).drop_duplicates()
    first = df.groupby("u")["wk"].min().rename("cw")
    df = df.join(first, on="u")
    df["woff"] = df["wk"] - df["cw"]
    g = df.groupby(["cw", "woff"])["u"].nunique()
    return {(int(c), int(o)): int(n) for (c, o), n in g.items()}


def _run_retention(rows):
    got = retention_cohorts(_events_ds(rows)).take_all()
    return {(r["cohort_week"], r["week_offset"]): r["n_users"] for r in got}


def test_retention_basic():
    rows = [
        (1, 100), (1, 101), (1, 103),          # cohort 100, offsets 0/1/3
        (2, 100), (2, 100), (2, 102),          # dup event same week
        (3, 101),                              # later cohort
        (4, 100), (4, 101), (4, 101),
    ]
    got = _run_retention(rows)
    assert got == _naive_retention(rows)
    assert got[(100, 0)] == 3  # cohort size row


def test_retention_random_bucket_invariance():
    rng = np.random.default_rng(11)
    rows = [(int(rng.integers(0, 60)), int(rng.integers(2900, 2920)))
            for _ in range(3000)]
    assert _run_retention(rows) == _naive_retention(rows)


def _sql_ntile_bucket(r, n, k):
    q, rem = divmod(n, k)
    if r < rem * (q + 1):
        return r // (q + 1) + 1
    return rem + (r - rem * (q + 1)) // q + 1


def _naive_ntile(rows, k):
    df = pd.DataFrame(rows, columns=["doc_id", "lang", "n_chars"])
    out = {}
    for lang, grp in df.groupby("lang"):
        grp = grp.sort_values(["n_chars", "doc_id"]).reset_index(drop=True)
        n = len(grp)
        for r, row in grp.iterrows():
            out[int(row.doc_id)] = _sql_ntile_bucket(r, n, k)
    return out


def _run_ntile(rows, k):
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "lang": pa.array([r[1] for r in rows]),
            "n_chars": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    ds = ray.data.from_arrow(t).repartition(3)
    got = group_ntile(ds, "lang", "n_chars", "doc_id", k=k).take_all()
    return {r["doc_id"]: r["bucket"] for r in got}


def test_ntile_matches_sql_rule():
    rng = np.random.default_rng(5)
    rows = [(i, f"l{int(rng.integers(0, 4))}", int(rng.integers(0, 50)))
            for i in range(437)]  # ties guaranteed, uneven partitions
    for k in (1, 3, 10):
        assert _run_ntile(rows, k) == _naive_ntile(rows, k)


def test_ntile_small_partitions():
    # n < k: every row its own bucket, numbered 1..n
    rows = [(1, "a", 9), (2, "a", 5), (3, "b", 1)]
    got = _run_ntile(rows, 10)
    assert got == {2: 1, 1: 2, 3: 1}


def test_ntile_and_percent_rank_crc32_twin_groups(ray_session):
    # "plumless" and "buckeroo" share a crc32, so both partitions land in
    # one shuffle bucket; each must still be ranked on its own
    rows = [(1, "plumless", 5), (2, "plumless", 3), (3, "plumless", 9),
            (4, "plumless", 3), (5, "buckeroo", 4), (6, "buckeroo", 1),
            (7, "buckeroo", 8)]
    got = _run_ntile(rows, 2)
    assert got == _naive_ntile(rows, 2)
    assert got == {2: 1, 4: 1, 1: 2, 3: 2, 6: 1, 5: 1, 7: 2}
    t = pa.table({"doc_id": [r[0] for r in rows], "lang": [r[1] for r in rows],
                  "n_chars": [r[2] for r in rows]})
    pr = group_percent_rank(ray.data.from_arrow(t).repartition(3),
                            "lang", "n_chars", "doc_id").take_all()
    assert {r["doc_id"]: r["pr_micro"] for r in pr} == {
        2: 0, 4: 0, 1: 666666, 3: 10**6, 6: 0, 5: 500000, 7: 10**6}


def test_ntile_rejects_bad_k():
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "lang": pa.array(["a"]),
                  "n_chars": pa.array([1], pa.int64())})
    )
    with pytest.raises(ValueError):
        group_ntile(ds, "lang", "n_chars", "doc_id", k=0)
