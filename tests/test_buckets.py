"""distinct_reduce, the key hash and the width rules of the co-shuffle callers."""

import numpy as np
import pyarrow as pa
import pytest

from solaris_ray.stages._buckets import bucket_of, distinct_reduce
from solaris_ray.stages.actives import rolling_actives
from solaris_ray.stages.autocorr import lag_autocorr
from solaris_ray.stages.cdc import merge_changes, scd2_intervals, scd2_lookup
from solaris_ray.stages.cooccur import type_cooccurrence
from solaris_ray.stages.corpus import paragraph_dedup, source_overlap
from solaris_ray.stages.dbscan import dbscan
from solaris_ray.stages.editdist import editdist1_pairs, editdist_pairs
from solaris_ray.stages.hull import group_convex_hull
from solaris_ray.stages.moran import getis_ord, moran_i
from solaris_ray.stages.ntile import group_ntile, group_percent_rank
from solaris_ray.stages.profile import profile_table
from solaris_ray.stages.ranktest import mann_whitney, spearman
from solaris_ray.stages.ripley import ripley_pair_counts
from solaris_ray.stages.setjoin import jaccard_set_join
from solaris_ray.stages.cohorts import retention_cohorts
from solaris_ray.stages.cusum import cusum_alarms
from solaris_ray.stages.ema import ema_final
from solaris_ray.stages.ffill import forward_fill
from solaris_ray.stages.funnel import funnel
from solaris_ray.stages.gini import group_gini
from solaris_ray.stages.intervals import merge_intervals
from solaris_ray.stages.paths import session_paths
from solaris_ray.stages.rolling import rolling_median2
from solaris_ray.stages.theilsen import theil_sen
from solaris_ray.stages.trajectory import trajectory_length
from solaris_ray.stages.transitions import transition_matrix
from solaris_ray.stages.trend import trend_slope


def _ds(tbl):
    import ray.data

    return ray.data.from_arrow(tbl)


def test_bucket_of_nonnegative():
    x = np.array([-5, -1, 0, 1, 2**40], np.int64)
    b = bucket_of(x, 7)
    assert ((b >= 0) & (b < 7)).all()


def test_distinct_plain(ray_session):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 50, 5000)
    b = rng.integers(0, 50, 5000)
    t = pa.table({"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64())})
    out = distinct_reduce(_ds(t), ["id_a", "id_b"]).to_pandas()
    want = {(int(x), int(y)) for x, y in zip(a, b)}
    assert set(zip(out.id_a, out.id_b)) == want
    assert len(out) == len(want)


def test_distinct_with_min_max_sum(ray_session):
    t = pa.table({
        "k1": pa.array([1, 1, 2, 2, 2], pa.int64()),
        "k2": pa.array([7, 7, 9, 9, 9], pa.int64()),
        "v": pa.array([3.0, 5.0, 2.0, 8.0, 4.0], pa.float64()),
        "w": pa.array([1, 10, 100, 1000, 10000], pa.int64()),
    })
    out = distinct_reduce(
        _ds(t), ["k1", "k2"], aggs={"v": "max", "w": "sum"}
    ).to_pandas().sort_values("k1").reset_index(drop=True)
    assert out.v.tolist() == [5.0, 8.0]
    assert out.w.tolist() == [11, 11100]
    out2 = distinct_reduce(_ds(t), ["k1", "k2"], aggs={"v": "min"}).to_pandas()
    assert sorted(out2.v.tolist()) == [2.0, 3.0]


def test_distinct_matches_ray_groupby(ray_session):
    rng = np.random.default_rng(9)
    a = rng.integers(-100, 100, 3000)
    b = rng.integers(-100, 100, 3000)
    v = rng.integers(0, 1000, 3000)
    t = pa.table({"id_a": pa.array(a, pa.int64()), "id_b": pa.array(b, pa.int64()),
                  "v": pa.array(v, pa.int64())})
    mine = distinct_reduce(_ds(t), ["id_a", "id_b"], aggs={"v": "min"}).to_pandas()
    ref = _ds(t).groupby(["id_a", "id_b"]).min("v").to_pandas()
    mine = mine.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    ref = ref.sort_values(["id_a", "id_b"]).reset_index(drop=True)
    assert mine.id_a.tolist() == ref.id_a.tolist()
    assert mine.v.tolist() == ref["min(v)"].tolist()


def test_unknown_agg_rejected(ray_session):
    t = pa.table({"k": pa.array([1], pa.int64()), "v": pa.array([1], pa.int64())})
    with pytest.raises(Exception):
        distinct_reduce(_ds(t), ["k"], aggs={"v": "median"}).to_pandas()


def test_distinct_float_keys(ray_session):
    t = pa.table({
        "x": pa.array([1.5, 1.5, -0.0, 0.0, 2.25], pa.float64()),
        "y": pa.array([2.0, 2.0, 3.0, 3.0, 4.0], pa.float64()),
        "v": pa.array([1, 2, 3, 4, 5], pa.int64()),
    })
    out = distinct_reduce(_ds(t), ["x", "y"], aggs={"v": "sum"}).to_pandas()
    got = {(float(x), float(y)): int(v)
           for x, y, v in zip(out.x, out.y, out.v)}
    # -0.0 and +0.0 are ONE key; float values come back as floats
    assert got == {(1.5, 2.0): 3, (0.0, 3.0): 7, (2.25, 4.0): 5}
    assert out.x.dtype == np.float64
    # a NaN key has no well-defined group: refused, naming the column
    # (the ValueError surfaces wrapped in RayTaskError; match its text)
    nan = t.set_column(1, "y", pa.array([2.0, float("nan"), 3.0, 3.0, 4.0]))
    with pytest.raises(Exception, match="ValueError: NaN in key column 'y'"):
        distinct_reduce(_ds(nan), ["x", "y"]).materialize()


def test_graph_rounds_keep_block_count_at_width(ray_session):
    # iterative graph stages repartition their state to the width of the
    # INPUT every round; a width read from the unioned per-round state
    # (or a fixed count) lets the result's block count drift above it
    import ray.data

    from solaris_ray.stages._buckets import shuffle_width
    from solaris_ray.stages.bfs import bfs_hops
    from solaris_ray.stages.pagerank import pagerank

    pairs = [(i, (i * 3 + 1) % 50) for i in range(50)]
    pairs += [(i, (i + 7) % 50) for i in range(0, 50, 2)]
    t = pa.table({"src": pa.array([p[0] for p in pairs], pa.int64()),
                  "dst": pa.array([p[1] for p in pairs], pa.int64())})
    edges = ray.data.from_arrow(t).repartition(5)
    seeds = ray.data.from_arrow(pa.table({"node": pa.array([0], pa.int64())}))
    width = shuffle_width(edges)
    assert pagerank(edges, iters=8).materialize().num_blocks() <= width
    hops = bfs_hops(edges, seeds, small_edge_limit=0).materialize()
    assert hops.num_blocks() <= width


def test_graph_family_takes_no_fixed_width():
    # the bucket count and every repartition come from shuffle_width;
    # no graph-family, event-family or other co_shuffle entry point may
    # take a literal width again
    import inspect

    from solaris_ray.stages.bfs import bfs_hops
    from solaris_ray.stages.kcore import kcore
    from solaris_ray.stages.linkpred import link_prediction_scores
    from solaris_ray.stages.pagerank import pagerank
    from solaris_ray.stages.sssp import sssp_dist
    from solaris_ray.stages.triangles import triangle_counts

    for fn in (bfs_hops, sssp_dist, pagerank, kcore, triangle_counts,
               link_prediction_scores, distinct_reduce, *_EVENT_FAMILY.values(),
               *_PORTED):
        params = set(inspect.signature(fn).parameters)
        knobs = {"n_buckets", "shuffle_blocks"} & params
        assert not knobs, f"{fn.__name__} takes {sorted(knobs)}"


# the keyed stages outside the event family that run on co_shuffle
_PORTED = (
    merge_changes, scd2_intervals, scd2_lookup, type_cooccurrence, source_overlap,
    paragraph_dedup, dbscan, editdist1_pairs, editdist_pairs, group_convex_hull,
    moran_i, getis_ord, group_ntile, group_percent_rank, profile_table,
    mann_whitney, spearman, ripley_pair_counts, jaccard_set_join,
)

# the event family on co_shuffle: entry point -> a call on _event_ds
_EVENT_FAMILY = {
    ema_final: lambda ds: ema_final(ds, "user_id", "t", "event_id", "v"),
    rolling_median2: rolling_median2,
    funnel: lambda ds: funnel(ds, ["view", "click"]),
    trajectory_length: trajectory_length,
    session_paths: lambda ds: session_paths(ds, gap_us=10),
    trend_slope: trend_slope,
    retention_cohorts: retention_cohorts,
    transition_matrix: transition_matrix,
    rolling_actives: rolling_actives,
    group_gini: lambda ds: group_gini(ds, "user_id", "v"),
    merge_intervals: lambda ds: merge_intervals(ds, "user_id", "s", "e"),
    forward_fill: lambda ds: forward_fill(ds, "user_id", ["t"], "v", "event_id"),
    cusum_alarms: lambda ds: cusum_alarms(ds, "user_id", ["t"], "v", mu0=0, slack=0, h=1),
    lag_autocorr: lambda ds: lag_autocorr(ds, "user_id", ["t"], "v"),
    theil_sen: lambda ds: theil_sen(ds, "user_id", "t", "v"),
}


def _event_ds(user_id: pa.Array):
    n = len(user_id)
    t = np.arange(n, dtype=np.int64)
    return _ds(pa.table({
        "user_id": user_id,
        "event_type": ["view", "click", "purchase", "view"][:n],
        "ts": pa.array(t * 3_600_000_000, pa.timestamp("us")),
        "event_id": t,
        "value": t * 1.5,
        "x": t * 1.0,
        "y": t * 2.0,
        "t": t,
        "v": t * 7,
        "s": t * 10,
        "e": t * 10 + 5,
    }))


# two strings with one crc32 (1306201125)
_CRC_TWINS = ["plumless", "buckeroo"]

_BAD_KEYS = {
    "null": pa.array([1, None, 2, 1], pa.int64()),
    "NaN": pa.array([1.0, float("nan"), 2.0, 1.0]),
    "string": pa.array(_CRC_TWINS * 2),
}


@pytest.mark.parametrize("bad", ["null", "NaN", "string"])
@pytest.mark.parametrize("stage", list(_EVENT_FAMILY), ids=lambda f: f.__name__)
def test_event_family_refuses_null_and_nan_keys(ray_session, stage, bad):
    # a null int key used to come back as key -2**63, a string key as
    # its crc32 (merging keys whose crc32 collide); none has an exact
    # int64 group, so each is refused naming the column
    with pytest.raises(Exception, match=f"ValueError: {bad} in key column 'user_id'"):
        _EVENT_FAMILY[stage](_event_ds(_BAD_KEYS[bad])).materialize()


def test_distinct_reduce_refuses_string_keys(ray_session):
    t = pa.table({"k": _CRC_TWINS * 2, "v": [1, 2, 3, 4]})
    with pytest.raises(Exception, match="ValueError: string in key column 'k'"):
        distinct_reduce(_ds(t), ["k"], {"v": "sum"}).materialize()


# the graph family tags rows with bucket_of itself, once per round; every
# other keyed shuffle is a co_shuffle, and no module may be added
_BUCKET_OF_ALLOWLIST = {"kcore", "linkpred", "pagerank", "sssp", "triangles"}


def test_bucket_of_importers_only_shrink():
    import ast
    import pathlib

    import solaris_ray.pipelines.queries as queries
    import solaris_ray.stages as stages

    users = set()
    paths = [*pathlib.Path(stages.__file__).parent.glob("*.py"), pathlib.Path(queries.__file__)]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and (node.module or "").endswith("_buckets")
                    and any(a.name == "bucket_of" for a in node.names)):
                users.add(path.stem)
    assert users <= _BUCKET_OF_ALLOWLIST, sorted(users - _BUCKET_OF_ALLOWLIST)
