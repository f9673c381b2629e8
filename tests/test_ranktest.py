"""Mann–Whitney U rank-sum test (tie-aware, exact 2× ranks)."""

import numpy as np
import pyarrow as pa


def _run(groups, values):
    import ray.data

    from solaris_ray.stages.ranktest import mann_whitney

    ds = ray.data.from_arrow(pa.table({
        "g": pa.array(groups, pa.string()),
        "v": pa.array(values, pa.int64()),
    }))
    return mann_whitney(ds, "g", "v", "a", "b").to_pandas().iloc[0]


def _brute_u2(groups, values):
    # 2×U for group a: pairs where a > b count 2, ties count 1
    a = [v for g, v in zip(groups, values) if g == "a"]
    b = [v for g, v in zip(groups, values) if g == "b"]
    u2 = 0
    for x in a:
        for y in b:
            u2 += 2 if x > y else (1 if x == y else 0)
    return u2, len(a), len(b)


def test_u_matches_pair_counting_with_ties(ray_session):
    rng = np.random.default_rng(8)
    g = ["a" if x else "b" for x in rng.random(300) < 0.4]
    v = rng.integers(0, 25, 300).tolist()  # heavy ties
    out = _run(g, v)
    u2, n1, n2 = _brute_u2(g, v)
    assert out["u2"] == u2 and out["n1"] == n1 and out["n2"] == n2


def test_shifted_group_gives_positive_z(ray_session):
    rng = np.random.default_rng(9)
    g = ["a"] * 200 + ["b"] * 200
    v = np.concatenate([rng.integers(50, 150, 200),
                        rng.integers(0, 100, 200)]).tolist()
    out = _run(g, v)
    assert out["z6"] > 3.0  # a is stochastically larger


def test_identical_groups_z_near_zero(ray_session):
    v = list(range(100)) * 2
    g = ["a"] * 100 + ["b"] * 100
    out = _run(g, v)
    assert abs(out["z6"]) < 1e-9
    # all values tied pairwise across groups in the same pattern:
    # U must be exactly its null mean n1*n2 (in 2x units)
    assert out["u2"] == 100 * 100


def test_other_groups_excluded(ray_session):
    g = ["a", "b", "zzz", "a"]
    v = [5, 3, 999, 7]
    out = _run(g, v)
    assert out["n1"] == 2 and out["n2"] == 1
    assert out["u2"] == _brute_u2(["a", "b", "a"], [5, 3, 7])[0]


def test_spearman_matches_quadratic_reference(ray_session):
    import ray.data

    from solaris_ray.stages.ranktest import spearman

    rng = np.random.default_rng(21)
    n = 600
    x = rng.integers(0, 40, n)               # heavy ties
    y = (2 * x + rng.integers(0, 30, n)).astype(np.int64)
    ds = ray.data.from_arrow(pa.table({"x": x, "y": y}))
    out = spearman(ds, "x", "y").to_pandas().iloc[0]

    def avg_ranks2(v):
        order = np.argsort(v, kind="stable")
        r2 = np.empty(v.size, np.int64)
        sv = 0
        for val in np.unique(v):
            c = int((v == val).sum())
            r2[v == val] = 2 * sv + c + 1
            sv += c
        return r2

    rx, ry = avg_ranks2(x), avg_ranks2(y)
    num = n * int((rx * ry).sum()) - int(rx.sum()) * int(ry.sum())
    dx = n * int((rx * rx).sum()) - int(rx.sum()) ** 2
    dy = n * int((ry * ry).sum()) - int(ry.sum()) ** 2
    want = round(num / np.sqrt(float(dx) * float(dy)), 6)
    assert out["n"] == n and out["rho6"] == want
    assert out["rho6"] > 0.7  # planted monotone trend


def test_spearman_perfect_monotone(ray_session):
    import ray.data

    from solaris_ray.stages.ranktest import spearman

    n = 200
    x = np.arange(n, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"x": x, "y": x * x}))
    out = spearman(ds, "x", "y").to_pandas().iloc[0]
    assert out["rho6"] == 1.0


def test_zero_rows_give_the_empty_result(ray_session):
    import ray.data

    from solaris_ray.stages.ranktest import mann_whitney, spearman

    empty = pa.table({"g": pa.array([], pa.string()), "v": pa.array([], pa.int64())})
    out = mann_whitney(ray.data.from_arrow(empty), "g", "v", "a", "b").to_pandas()
    assert out.to_dict("records") == [{"n1": 0, "n2": 0, "u2": 0, "t3t": 0, "z6": 0.0}]
    # rows exist, but none in either compared group
    other = _run(["zzz", "yyy"], [1, 2])
    assert (other["n1"], other["n2"], other["u2"], other["z6"]) == (0, 0, 0, 0.0)
    xy = pa.table({"x": pa.array([], pa.int64()), "y": pa.array([], pa.int64())})
    out = spearman(ray.data.from_arrow(xy), "x", "y").to_pandas()
    assert out.to_dict("records") == [{"n": 0, "rho6": 0.0}]
