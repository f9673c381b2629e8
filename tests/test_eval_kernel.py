"""The eval bucket kernel against a per-image ``greedy_match_group`` recount."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from solaris_ray.stages import evaluate

# unit-grid rings: IoU(square, lower half) = 1/2 and IoU(big, square) =
# 1/4 exactly, so both ``miniou`` values below are hit on the nose; the
# L and the U are concave.  The 20-gon's float vertices pad the rows of
# a bucket's one IoU call wider than a lone image's would be
_SHAPES = (
    [(0, 0), (2, 0), (2, 2), (0, 2)],
    [(0, 0), (2, 0), (2, 1), (0, 1)],
    [(0, 0), (4, 0), (4, 4), (0, 4)],
    [(0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)],
    [(0, 0), (6, 0), (6, 4), (4, 4), (4, 2), (2, 2), (2, 4), (0, 4)],
    [(2 + 2 * np.cos(t), 2 + 2 * np.sin(t)) for t in np.linspace(0, 2 * np.pi, 20, endpoint=False)],
)


@st.composite
def _ring(draw) -> np.ndarray:
    ring = np.asarray(draw(st.sampled_from(_SHAPES)), np.float64)
    ring = ring + [draw(st.integers(0, 3)), draw(st.integers(0, 3))]
    return ring[::-1] if draw(st.booleans()) else ring  # either orientation


@st.composite
def _bucket(draw):
    """Rows of one eval bucket (proposals and GT of several images, in
    a drawn order) and ``miniou``.  Image keys may be composite
    ``image|class`` keys, as ``eval_scores(by_class=True)`` makes."""
    keys = [f"img{i}" + draw(st.sampled_from(["", "|building", "|road"]))
            for i in range(draw(st.integers(1, 5)))]
    rows = []
    for key in keys:
        for side in (0, 1):
            for _ in range(draw(st.integers(0, 4))):
                rows.append((key, side, draw(_ring()), draw(st.sampled_from([0.5, 0.9]))))
    if not rows:
        rows.append((keys[0], 1, draw(_ring()), 0.5))
    rows = draw(st.permutations(rows))
    pids = draw(st.permutations(range(len(rows))))  # ids ordered unlike the rows
    return rows, [100 + p for p in pids], draw(st.sampled_from([0.25, 0.5]))


def _table(rows, pids) -> pa.Table:
    return pa.table({
        "image_id": pa.array([r[0] for r in rows], pa.string()),
        "side": pa.array([r[1] for r in rows], pa.int8()),
        "pid": pa.array(pids, pa.int64()),
        "conf": pa.array([r[3] if r[1] == 0 else None for r in rows], pa.float64()),
        "xs": pa.array([r[2][:, 0].tolist() for r in rows], pa.list_(pa.float64())),
        "ys": pa.array([r[2][:, 1].tolist() for r in rows], pa.list_(pa.float64())),
    })


def _recount(rows, pids, miniou):
    """image -> (the matches of each of its proposal ids, score row),
    one ``greedy_match_group`` call per image in the rows' order."""
    out = {}
    for key in dict.fromkeys(r[0] for r in rows):
        p = [(pid, r) for pid, r in zip(pids, rows) if r[0] == key and r[1] == 0]
        g = [(pid, r) for pid, r in zip(pids, rows) if r[0] == key and r[1] == 1]
        matched, iou, is_tp = evaluate.greedy_match_group(
            np.array([i for i, _ in p], np.int64), np.array([r[3] for _, r in p]),
            [r[2] for _, r in p], np.array([i for i, _ in g], np.int64),
            [r[2] for _, r in g], miniou)
        tp = int(is_tp.sum())
        fp, fn = len(p) - tp, len(g) - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[key] = ({i: (r[3], m, u, t) for (i, r), m, u, t
                     in zip(p, matched.tolist(), iou.tolist(), is_tp.tolist())},
                    (tp, fp, fn, prec, rec, f1))
    return out


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_bucket())
def test_match_bucket_is_a_per_image_recount(case):
    rows, pids, miniou = case
    matches, scores = evaluate._match_bucket(_table(rows, pids), miniou)
    assert matches.schema == evaluate.MATCH_SCHEMA
    assert scores.schema == evaluate.SCORE_SCHEMA
    want = _recount(rows, pids, miniou)
    got = {}
    for r in matches.to_pylist():
        got.setdefault(r["image_id"], {})[r["proposal_id"]] = (
            r["conf"], r["matched_feature_id"], r["iou"], r["is_tp"])
    assert got == {k: m for k, (m, _) in want.items() if m}
    assert {r["image_id"]: tuple(list(r.values())[1:]) for r in scores.to_pylist()} == {
        k: s for k, (_, s) in want.items()}


def test_match_bucket_covers_the_edge_cases():
    # the cases the property test must meet, pinned: one image with only
    # proposals, one with only GT, a conf tie broken by proposal id and
    # an IoU exactly at miniou, which is not a match
    sq, half = np.asarray(_SHAPES[0], float), np.asarray(_SHAPES[1], float)
    rows = [("p_only", 0, sq, 0.9), ("g_only", 1, sq, 0.5),
            ("tie", 0, sq, 0.9), ("tie", 0, sq, 0.9), ("tie", 1, sq, 0.5),
            ("at", 0, half, 0.9), ("at", 1, sq, 0.5)]
    pids = [1, 2, 11, 10, 3, 4, 5]
    matches, scores = evaluate._match_bucket(_table(rows, pids), 0.5)
    m = {r["proposal_id"]: (r["matched_feature_id"], r["iou"], r["is_tp"])
         for r in matches.to_pylist()}
    assert m == {1: (-1, 0.0, 0), 10: (3, 1.0, 1), 11: (-1, 0.0, 0), 4: (-1, 0.5, 0)}
    s = {r["image_id"]: (r["tp"], r["fp"], r["fn"]) for r in scores.to_pylist()}
    assert s == {"p_only": (0, 1, 0), "g_only": (0, 0, 1), "tie": (1, 1, 0), "at": (0, 1, 1)}


def _sides(rng, n_images: int):
    """Proposal and GT tables of ``n_images`` images with a class each."""
    def side(n, id_col, **extra):
        x = rng.integers(0, 4, n) * 3.0
        return pa.table({
            id_col: pa.array(rng.permutation(n), pa.int64()),
            "image_id": [f"img{i}" for i in rng.integers(0, n_images, n)],
            "class": rng.choice(["building", "road"], n).tolist(),
            "xs": pa.array([[v, v + 4, v + 4, v] for v in x], pa.list_(pa.float64())),
            "ys": pa.array([[0.0, 0.0, 4.0, 4.0]] * n, pa.list_(pa.float64())),
            **extra,
        })

    return side(60, "proposal_id", conf=rng.choice([0.5, 0.7, 0.9], 60)), side(50, "feature_id")


@pytest.mark.parametrize("by_class", [False, True])
def test_eval_stages_match_the_recount(ray_session, by_class):
    # eval_matches keeps MATCH_SCHEMA's dtypes and one row per proposal;
    # eval_scores (plain and class-keyed) agrees with the recount
    import ray

    props, gt = _sides(np.random.default_rng(11), 9)
    rows, pids = [], []
    for t, side, id_col in ((props, 0, "proposal_id"), (gt, 1, "feature_id")):
        for r in t.to_pylist():
            key = f"{r['image_id']}|{r['class']}" if by_class else r["image_id"]
            rows.append((key, side, np.stack([r["xs"], r["ys"]], 1), r.get("conf")))
            pids.append(r[id_col])
    want = _recount(rows, pids, 0.5)

    def ds(t):
        return ray.data.from_arrow(t).repartition(3)

    scores = evaluate.eval_scores(ds(props), ds(gt), by_class=by_class).to_pandas()
    assert {r.image_id: (r.tp, r.fp, r.fn) for r in scores.itertuples()} == {
        k: s[:3] for k, (_, s) in want.items()}
    if by_class:
        return
    refs = evaluate.eval_matches(ds(props), ds(gt)).to_arrow_refs()
    matches = pa.concat_tables(b for b in ray.get(refs) if b.num_rows)
    assert matches.schema == evaluate.MATCH_SCHEMA
    assert matches.num_rows == props.num_rows
    got = {(r["image_id"], r["proposal_id"]): (r["conf"], r["matched_feature_id"], r["iou"],
                                               r["is_tp"]) for r in matches.to_pylist()}
    assert got == {(k, i): v for k, (m, _) in want.items() for i, v in m.items()}
