"""distinct_reduce, the key hash and the width rules of the co-shuffle callers."""

import numpy as np
import pyarrow as pa
import pytest

from solaris_ray.stages._buckets import bucket_of, distinct_reduce, top_k
from solaris_ray.stages.actives import rolling_actives
from solaris_ray.stages.align import caption_alignment
from solaris_ray.stages.autocorr import lag_autocorr
from solaris_ray.stages.cdc import merge_changes, scd2_intervals, scd2_lookup
from solaris_ray.stages.components import connected_components
from solaris_ray.stages.cooccur import type_cooccurrence
from solaris_ray.stages.corpus import paragraph_dedup, source_overlap
from solaris_ray.stages.dbscan import dbscan
from solaris_ray.stages.dissolve import overlap_pairs
from solaris_ray.stages.divergence import source_kl
from solaris_ray.stages.dupspan import duplicate_spans
from solaris_ray.stages.editdist import editdist1_pairs, editdist_pairs
from solaris_ray.stages.evaluate import eval_scores
from solaris_ray.stages.hull import group_convex_hull
from solaris_ray.stages.masks import masks_from_join
from solaris_ray.stages.moran import getis_ord, moran_i
from solaris_ray.stages.negatives import mine_negatives
from solaris_ray.stages.ntile import group_ntile, group_percent_rank
from solaris_ray.stages.profile import profile_table
from solaris_ray.stages.quantiles import group_quantiles, grouped_mad
from solaris_ray.stages.rank import retrieval_metrics
from solaris_ray.stages.ranktest import mann_whitney, spearman
from solaris_ray.stages.relational import hash_join
from solaris_ray.stages.ripley import ripley_pair_counts
from solaris_ray.stages.setjoin import jaccard_set_join
from solaris_ray.stages.tfidf import tfidf_topk, vocab_topk
from solaris_ray.stages.votes import resolve_labels
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


@pytest.mark.parametrize("n", [1, 2, 5])
def test_co_shuffle_calls_fn_once_per_bucket(ray_session, n):
    # every key's rows in one call, at most n calls with rows, none
    # without: the sort cuts one block per tag and never splits a tag.
    # Its block count follows n, not the input's 4 blocks.  One bucket
    # is one map task over all 4 blocks: one block out and no sort
    from solaris_ray.stages._buckets import co_shuffle

    keys = np.repeat(np.arange(40, dtype=np.int64), 3)
    ds = _ds(pa.table({"k": keys, "v": np.arange(keys.size)})).repartition(4)
    out = co_shuffle(ds, "k", lambda b: pa.table({"keys": [sorted(set(b["k"].to_pylist()))],
                                                  "rows": [b.num_rows]}), n).materialize()
    assert out.num_blocks() <= n
    if n == 1:
        assert out.num_blocks() == 1 and "Sort" not in out.stats()
    calls = out.to_pandas()
    assert 0 < len(calls) <= n
    got = [k for ks in calls["keys"] for k in ks]
    assert sorted(got) == list(range(40))
    assert calls["rows"].sum() == keys.size


def _masks_input() -> pa.Table:
    # two 64 px tiles, three footprints between them
    rects = [("t0", 5.0, 5.0, 20.0, 18.0), ("t0", 30.0, 22.0, 50.0, 40.0),
             ("t1", 70.0, 10.0, 90.0, 30.0)]
    return pa.table({
        "tile_id": [r[0] for r in rects],
        "image_id": ["i0"] * 3,
        "feature_id": pa.array([0, 1, 2], pa.int64()),
        "class": ["building"] * 3,
        "xs": pa.array([[r[1], r[3], r[3], r[1]] for r in rects], pa.list_(pa.float64())),
        "ys": pa.array([[r[2], r[2], r[4], r[4]] for r in rects], pa.list_(pa.float64())),
        "x0": [0.0, 0.0, 64.0], "y0": [0.0] * 3, "x1": [64.0, 64.0, 128.0], "y1": [64.0] * 3,
    })


def _eval_side(id_col: str, shift: np.ndarray, **extra) -> pa.Table:
    # 12 images of 4 unit-10 squares each, x shifted by ``shift``
    n = len(shift)
    x = np.arange(n) // 12 * 20.0 + shift
    return pa.table({
        id_col: pa.array(np.arange(n), pa.int64()),
        "image_id": [f"img{i % 12}" for i in range(n)],
        "xs": pa.array([[v, v + 10, v + 10, v] for v in x], pa.list_(pa.float64())),
        "ys": pa.array([[0.0, 0.0, 10.0, 10.0]] * n, pa.list_(pa.float64())),
        **extra,
    })


def _width_case(case: str):
    rows = np.arange(300)
    if case == "top_k":
        t = pa.table({"k": rows % 7, "v": rows * 37 % 101})
        return top_k(_ds(t).repartition(3), "k", [("v", "descending")], 3)
    if case == "distinct_reduce":
        t = pa.table({"a": rows % 7, "b": rows % 5, "v": rows})
        return distinct_reduce(_ds(t).repartition(3), ["a", "b"], {"v": "sum"})
    if case == "masks_from_join":
        return masks_from_join(_ds(_masks_input()).repartition(2), tile_size=64)
    rng = np.random.default_rng(5)
    props = _eval_side("proposal_id", rng.integers(0, 4, 48) * 1.0, conf=rng.choice([0.5, 0.9], 48))
    gt = _eval_side("feature_id", np.zeros(40))
    return eval_scores(_ds(props).repartition(2), _ds(gt))


@pytest.mark.parametrize("case", ["top_k", "distinct_reduce", "masks_from_join", "eval_scores"])
def test_one_bucket_plan_matches_four_buckets(ray_session, monkeypatch, case):
    # the width-1 plan (no tag, no sort) gives the rows of a 4-bucket shuffle
    import ray

    from solaris_ray.stages import _buckets

    out = {}
    for n in (1, 4):
        monkeypatch.setattr(_buckets, "shuffle_width", lambda ds, n=n: n)
        t = pa.concat_tables(b for b in ray.get(_width_case(case).to_arrow_refs()) if b.num_rows)
        out[n] = t.sort_by([(c, "ascending") for c in t.column_names])
    assert out[1].num_rows > 0
    assert out[1].equals(out[4])


def test_one_bucket_plan_of_no_rows_is_no_rows(ray_session):
    from solaris_ray.stages._buckets import co_shuffle

    empty = _ds(pa.table({"k": pa.array([], pa.int64())}))
    assert co_shuffle(empty, "k", lambda b: b.slice(0, 1), 1).count() == 0


@pytest.mark.parametrize("bad", ["null", "NaN"])
def test_one_bucket_plan_refuses_null_and_nan_keys(ray_session, bad):
    # no tag pass at width 1, but the same named error as at any width
    from solaris_ray.stages._buckets import co_shuffle

    ds = _ds(pa.table({"k": _BAD_KEYS[bad]}))
    with pytest.raises(Exception, match=f"ValueError: {bad} in key column 'k'"):
        co_shuffle(ds, "k", lambda b: b, 1).materialize()


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
    # iterative graph stages co-shuffle their state at the width of the
    # INPUT every round; a width read from the unioned per-round state
    # (or a fixed count) lets the result's block count drift above it
    import ray.data

    from solaris_ray.stages._buckets import shuffle_width
    from solaris_ray.stages.bfs import bfs_hops
    from solaris_ray.stages.kcore import kcore
    from solaris_ray.stages.pagerank import pagerank
    from solaris_ray.stages.sssp import sssp_dist

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
    weighted = edges.map_batches(
        lambda b: b.append_column("w", pa.array(np.full(b.num_rows, 2, np.int64))),
        batch_format="pyarrow")
    stats = {}
    dist = sssp_dist(weighted, seeds, small_edge_limit=0, stats_out=stats).materialize()
    assert stats["plan"] == "frontier-rounds" and stats["rounds"] > 2
    assert dist.num_blocks() <= width
    stats = {}
    core = kcore(edges, 2, small_edge_limit=0, stats_out=stats).materialize()
    assert stats["plan"] == "peel-rounds" and core.count() > 0
    # kcore's output is a Ray groupby over the peeled state; the state
    # of the peel rounds is what the width bounds
    assert core.num_blocks() <= width


def test_star_rounds_shuffle_at_the_input_width(ray_session, monkeypatch):
    # connected_components' star rounds co-shuffle at the width of the
    # canonical edge set, computed once, never at a fixed 64 buckets
    import ray.data

    import solaris_ray.stages.components as components
    from solaris_ray.stages._buckets import co_shuffle, shuffle_width

    widths = []

    def _spy(ds, keys, fn, n_buckets=None):
        widths.append(n_buckets)
        return co_shuffle(ds, keys, fn, n_buckets)

    monkeypatch.setattr(components, "co_shuffle", _spy)
    pairs = [(i, i + 1) for i in range(60) if i % 10 != 9]
    t = pa.table({"doc_a": pa.array([p[0] for p in pairs], pa.int64()),
                  "doc_b": pa.array([p[1] for p in pairs], pa.int64())})
    edges = ray.data.from_arrow(t).repartition(5).materialize()
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(range(70), pa.int64())}))
    stats = {}
    out = connected_components(edges, nodes, stats_out=stats, small_edge_limit=0).to_pandas()
    assert stats["path"] == "star-rounds" and stats["converged"]
    assert dict(zip(out.doc_id, out.component)) == {
        n: n - n % 10 if n < 60 else n for n in range(70)}
    # two passes per round at the input's width, then the isolated-node
    # anti-join at its own default width
    rounds = widths[:-1]
    assert len(rounds) == 2 * stats["rounds"]
    assert set(rounds) == {shuffle_width(edges)} and widths[-1] is None


def test_graph_family_takes_no_fixed_width():
    # the bucket count and every repartition come from shuffle_width;
    # no graph-family, event-family or other co_shuffle entry point may
    # take a literal width again
    import inspect

    from solaris_ray.stages.bfs import bfs_hops
    from solaris_ray.stages.joins import cell_partitioned_join
    from solaris_ray.stages.kcore import kcore
    from solaris_ray.stages.linkpred import link_prediction_scores
    from solaris_ray.stages.pagerank import pagerank
    from solaris_ray.stages.sssp import sssp_dist
    from solaris_ray.stages.triangles import triangle_counts

    for fn in (bfs_hops, sssp_dist, pagerank, kcore, triangle_counts,
               link_prediction_scores, distinct_reduce, cell_partitioned_join,
               *_EVENT_FAMILY.values(), *_PORTED):
        params = set(inspect.signature(fn).parameters)
        knobs = {"n_buckets", "nbuckets", "shuffle_blocks"} & params
        assert not knobs, f"{fn.__name__} takes {sorted(knobs)}"


# the keyed stages outside the event family that run on co_shuffle
_PORTED = (
    merge_changes, scd2_intervals, scd2_lookup, type_cooccurrence, source_overlap,
    paragraph_dedup, dbscan, editdist1_pairs, editdist_pairs, group_convex_hull,
    moran_i, getis_ord, group_ntile, group_percent_rank, profile_table,
    mann_whitney, spearman, ripley_pair_counts, jaccard_set_join,
    caption_alignment, mine_negatives, source_kl, hash_join, resolve_labels,
    retrieval_metrics, vocab_topk, tfidf_topk, group_quantiles, grouped_mad,
    overlap_pairs, duplicate_spans, connected_components,
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


# every keyed shuffle is a co_shuffle: no stage tags rows with bucket_of
# itself, and none may start again
_BUCKET_OF_ALLOWLIST = set()


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
    assert not _BUCKET_OF_ALLOWLIST
    assert users <= _BUCKET_OF_ALLOWLIST, sorted(users - _BUCKET_OF_ALLOWLIST)


# the stages whose old tag hashed crc32(str(group)): entry point -> a call
# on a table with a group column "g", an int column "v" and a "text"
_CRC_TAGGED = {
    group_quantiles: lambda ds: group_quantiles(ds, "g", "v", [0.5]),
    grouped_mad: lambda ds: grouped_mad(ds, "g", "v"),
    source_kl: lambda ds: source_kl(ds, "g", "text"),
}


def test_crc_tagged_stages_keep_crc_twins_apart(ray_session):
    # the twins share one bucket, never one group: each stage segments
    # on the key itself, as group, as source and as term
    t = pa.table({"g": _CRC_TWINS * 2, "v": [1, 2, 3, 4],
                  "text": ["plumless plumless", "buckeroo", "buckeroo", "x"]})
    q = _CRC_TAGGED[group_quantiles](_ds(t)).to_pandas()
    assert dict(zip(q.g, q.value)) == {"plumless": 1, "buckeroo": 2}
    mad = _CRC_TAGGED[grouped_mad](_ds(t)).to_pandas()
    assert dict(zip(mad.grp, mad.n)) == {"plumless": 2, "buckeroo": 2}
    kl = _CRC_TAGGED[source_kl](_ds(t)).to_pandas()
    # q = (2/5 plumless, 2/5 buckeroo, 1/5 x); source plumless has
    # p = (2/3 plumless, 1/3 buckeroo), source buckeroo p = (1/2 buckeroo, 1/2 x)
    want = {"plumless": 2 / 3 * np.log(5 / 3) + 1 / 3 * np.log(5 / 6),
            "buckeroo": 0.5 * np.log(5 / 4) + 0.5 * np.log(5 / 2)}
    assert dict(zip(kl.g, kl.kl6)) == pytest.approx(want, abs=1e-6)
    assert dict(zip(kl.g, kl.n_tokens)) == {"plumless": 3, "buckeroo": 2}
    top = vocab_topk(_ds(t), k=5).to_pandas()
    assert dict(zip(top.term, top.cnt)) == {"plumless": 2, "buckeroo": 2, "x": 1}


@pytest.mark.parametrize("groups", [["a", None, "b", "a"], ["a", None, "a", None]],
                         ids=["one-null", "two-nulls"])
@pytest.mark.parametrize("stage", list(_CRC_TAGGED), ids=lambda f: f.__name__)
def test_crc_tagged_stages_refuse_null_groups(ray_session, stage, groups):
    # crc32(str(None)) tagged a null group as "None": one null row came
    # back as a null group, two raised an unnamed TypeError
    t = pa.table({"g": pa.array(groups, pa.string()), "v": [1, 2, 3, 4],
                  "text": ["a b", "b", "c", "a"]})
    with pytest.raises(Exception, match="ValueError: null in key column 'g'"):
        _CRC_TAGGED[stage](_ds(t)).materialize()


def test_vocab_topk_null_text_has_no_terms(ray_session):
    # vocab_topk's key is a token, never null: a null text adds none
    t = pa.table({"text": pa.array(["a b", None, "b"])})
    top = vocab_topk(_ds(t), k=5).to_pandas()
    assert dict(zip(top.term, top.cnt)) == {"b": 2, "a": 1}


# modules that still run a keyed exchange on Ray's own
# groupby(key).map_groups instead of co_shuffle.  Each move to co_shuffle
# removes its module; this set may only shrink.
_MAP_GROUPS_ALLOWLIST = {
    "ann", "asof", "calibrate", "chips", "cluster", "compact", "dedup", "dominance",
    "export", "fill", "focal", "graph", "pca",
    "profile", "queries", "rangejoin", "segjoin", "sketch", "stump",
    "windows", "zonal",
}


def _map_groups_callers(paths) -> set:
    """Stems of the modules among ``paths`` that call ``.map_groups``,
    ``_buckets`` (``co_shuffle`` itself) excepted."""
    import ast

    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "map_groups" and path.stem != "_buckets"):
                found.add(path.stem)
    return found


def test_map_groups_users_only_shrink():
    import pathlib

    import solaris_ray

    paths = pathlib.Path(solaris_ray.__file__).parent.rglob("*.py")
    users = _map_groups_callers(paths)
    assert users <= _MAP_GROUPS_ALLOWLIST, sorted(users - _MAP_GROUPS_ALLOWLIST)


def test_map_groups_scan_sees_each_form(tmp_path):
    # the scan must flag every call form it polices, or the ratchet is empty
    forms = {
        "chained": "def f(ds):\n    return ds.groupby('k').map_groups(g)\n",
        "split": "def f(ds):\n    grouped = ds.groupby(['a', 'b'])\n    return grouped.map_groups(\n        g, batch_format='pyarrow')\n",
        "mention": "# groupby(k).map_groups in a comment\ns = 'x.map_groups(y)'\nmap_groups = 1\n",
        "_buckets": "def co_shuffle(ds):\n    return ds.groupby('t').map_groups(g)\n",
    }
    for name, src in forms.items():
        (tmp_path / f"{name}.py").write_text(src)
    assert _map_groups_callers(tmp_path.glob("*.py")) == {"chained", "split"}


# stage functions that may still fix a width, each for a reason of its
# own: feature-hash dimensions (text, corpus), the quantile histogram's
# resolution and pca's float fan-in (it fixes summation order, it is not
# a key shuffle).  No key shuffle is left in it.  The graph family
# computes its width once from its input.  This set may only shrink.
_LITERAL_WIDTH_ALLOWLIST = {
    "text.feature_hash_counts", "corpus.dsir_weights",
    "quantiles.exact_quantiles", "quantiles.exact_rank_select",
    "pca.covariance_partials",
}


def _literal_widths(path) -> set:
    """``module.function`` for each function of ``path`` with an int
    literal default for ``n_buckets``/``nbuckets``, or that assigns an
    int literal to ``n_buckets``/``_N_BUCKETS`` (``module.<module>`` at
    module level)."""
    import ast

    def _is_int(node) -> bool:
        return isinstance(node, ast.Constant) and type(node.value) is int

    def _assigns(nodes) -> bool:
        for n in nodes:
            targets = (n.targets if isinstance(n, ast.Assign)
                       else [n.target] if isinstance(n, ast.AnnAssign) else [])
            if _is_int(getattr(n, "value", None)) and any(
                    isinstance(t, ast.Name) and t.id in ("n_buckets", "_N_BUCKETS")
                    for t in targets):
                return True
        return False

    tree = ast.parse(path.read_text())
    found = {f"{path.stem}.<module>"} if _assigns(tree.body) else set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        pos = a.posonlyargs + a.args
        defaults = list(zip(pos[len(pos) - len(a.defaults):], a.defaults))
        defaults += [(k, d) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if (any(k.arg in ("n_buckets", "nbuckets") and _is_int(d) for k, d in defaults)
                or _assigns(ast.walk(fn))):
            found.add(f"{path.stem}.{fn.name}")
    return found


def test_literal_shuffle_widths_only_shrink():
    import pathlib

    import solaris_ray.stages as stages

    found = set()
    for path in pathlib.Path(stages.__file__).parent.glob("*.py"):
        found |= _literal_widths(path)
    assert found <= _LITERAL_WIDTH_ALLOWLIST, sorted(found - _LITERAL_WIDTH_ALLOWLIST)


def test_literal_width_scan_sees_each_form(tmp_path):
    # the scan must flag every form it polices, or the ratchet is empty
    src = tmp_path / "fake.py"
    src.write_text("_N_BUCKETS: int = 1024\n"
                   "def a(ds, n_buckets: int = 64): pass\n"
                   "def b(ds, *, nbuckets=8): pass\n"
                   "def c(ds):\n    n_buckets = 256\n"
                   "def d(ds, n_buckets=None):\n    n_buckets = n_buckets or 4.0\n")
    assert _literal_widths(src) == {"fake.<module>", "fake.a", "fake.b", "fake.c"}


# int-literal ``batch_size=`` arguments per module of ``solaris_ray/``
# (ROADMAP item 3: a batch size follows the data, and it also sets the
# block count downstream).  A count may only fall; so may the total.
_LITERAL_BATCH_SIZES = {
    "pipelines.builder": 1, "pipelines.queries": 157, "stages.align": 2, "stages.ann": 3,
    "stages.bloom": 1, "stages.bm25": 2, "stages.bootstrap": 1, "stages.calibrate": 2,
    "stages.cdc": 2, "stages.chips": 1, "stages.cluster": 2, "stages.compact": 1,
    "stages.corpus": 6, "stages.dedup": 8, "stages.dissolve": 1, "stages.divergence": 1,
    "stages.dominance": 5, "stages.dupspan": 1, "stages.edges": 3, "stages.ema": 1,
    "stages.encode": 2, "stages.entropy": 1, "stages.evaluate": 2, "stages.export": 2,
    "stages.fill": 1, "stages.focal": 2, "stages.graph": 2, "stages.histogram": 1,
    "stages.linkpred": 2, "stages.masks": 1, "stages.negatives": 2,
    "stages.normalize": 2, "stages.pca": 2, "stages.profile": 2, "stages.pyramid": 1,
    "stages.quantiles": 2, "stages.ranktest": 3, "stages.relational": 1, "stages.ripley": 1,
    "stages.rolling": 1, "stages.rollup": 1, "stages.segjoin": 2, "stages.sketch": 4,
    "stages.split": 3, "stages.stretch": 3, "stages.stump": 1, "stages.text": 1,
    "stages.tfidf": 2, "stages.tiler": 1, "stages.windows": 1,
}


def _literal_batch_sizes(root) -> dict:
    """Dotted module path under ``root`` -> its count of calls passing an
    int literal as ``batch_size=``."""
    import ast
    import pathlib

    counts = {}
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        n = sum(1 for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)
                for k in node.keywords
                if k.arg == "batch_size" and isinstance(k.value, ast.Constant)
                and type(k.value.value) is int)
        if n:
            counts[".".join(path.relative_to(root).with_suffix("").parts)] = n
    return counts


def test_literal_batch_sizes_only_shrink():
    import pathlib

    import solaris_ray

    found = _literal_batch_sizes(pathlib.Path(solaris_ray.__file__).parent)
    grown = {m: n for m, n in found.items() if n > _LITERAL_BATCH_SIZES.get(m, 0)}
    assert not grown, grown
    assert sum(found.values()) <= sum(_LITERAL_BATCH_SIZES.values()) == 253


def test_literal_batch_size_scan_sees_each_form(tmp_path):
    # the scan must count every form it polices, or the ratchet is empty
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(
        "def f(ds, bs, batch_size=64):\n"
        "    ds.map_batches(g, batch_size=4096)\n"
        "    ds.map_batches(g,\n        batch_size=16)\n"
        "    ds.map_batches(g, batch_size=None)\n"
        "    ds.map_batches(g, batch_size=bs)\n"
        "    # ds.map_batches(g, batch_size=8)\n")
    assert _literal_batch_sizes(tmp_path) == {"pkg.m": 2}
