"""Determinism under parallelism: identical results at any block/batch
layout (the property that makes 'join output rows and tile assignments
match exactly' achievable on any cluster size)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from solaris_ray.sources.synth import gen_shard
from solaris_ray.stages import tiler
from solaris_ray.stages.joins import spatial_join
from solaris_ray.stages.knn import broadcast_knn_join


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    cols = [c for c in sorted(df.columns) if c not in ("xs", "ys")]
    df = df[cols]
    return df.sort_values(by=cols, kind="mergesort").reset_index(drop=True)


def test_clip_join_block_layout_invariant(ray_session):
    import ray

    imgs, feats = gen_shard(np.arange(16), 16, seed=42, size=256)
    meta = imgs.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    outs = []
    for blocks, bs in ((1, 4096), (7, 64), (16, 8)):
        specs = tiler.plan_tiles_ds(
            ray.data.from_arrow(meta).repartition(blocks), tile_size=128
        )
        ds = spatial_join(specs, feats, batch_size=bs)
        outs.append(_canon(ds.to_pandas()))
    pd.testing.assert_frame_equal(outs[0], outs[1], check_exact=True)
    pd.testing.assert_frame_equal(outs[0], outs[2], check_exact=True)


def test_knn_batch_size_invariant(ray_session):
    import ray

    rng = np.random.default_rng(3)
    pts = pa.table(
        {
            "point_id": pa.array(np.arange(500, dtype=np.int64)),
            "x": pa.array(rng.uniform(0, 2000, 500)),
            "y": pa.array(rng.uniform(0, 2000, 500)),
        }
    )
    feats = pa.table(
        {
            "feature_id": pa.array(np.arange(100, dtype=np.int64)),
            "cx": pa.array(rng.uniform(0, 2000, 100)),
            "cy": pa.array(rng.uniform(0, 2000, 100)),
        }
    )
    outs = []
    for bs in (16, 500):
        ds = broadcast_knn_join(
            ray.data.from_arrow(pts), feats, k=3, batch_size=bs
        )
        outs.append(_canon(ds.to_pandas()))
    pd.testing.assert_frame_equal(outs[0], outs[1], check_exact=True)


def test_reference_style_exact_f1(ray_session):
    """The reference's evaluator fixture shape: 28 GT x 28 proposals
    with exactly 8 matches -> P = R = F1 = 8/28 = 0.2857142857142857
    (tests/test_eval/evaluator_test.py:43-52 literal)."""
    import ray

    from solaris_ray.stages import evaluate

    def sq(x, y, s=10.0):
        return np.array([[x, y], [x + s, y], [x + s, y + s], [x, y + s]])

    gts, props = [], []
    for i in range(28):
        ring = sq(i * 30.0, 0.0)
        gts.append(
            {"feature_id": i, "image_id": "img", "class": "b",
             "xs": ring[:, 0].tolist(), "ys": ring[:, 1].tolist()}
        )
        # first 8 proposals overlap well; the rest are far off
        p = sq(i * 30.0 + (1.0 if i < 8 else 200000.0), 0.0)
        props.append(
            {"proposal_id": i, "image_id": "img", "class": "b",
             "xs": p[:, 0].tolist(), "ys": p[:, 1].tolist(), "conf": 1.0 - i * 0.01}
        )
    gt_schema = pa.schema(
        [("feature_id", pa.int64()), ("image_id", pa.string()), ("class", pa.string()),
         ("xs", pa.list_(pa.float64())), ("ys", pa.list_(pa.float64()))]
    )
    pr_schema = pa.schema(
        [("proposal_id", pa.int64()), ("image_id", pa.string()), ("class", pa.string()),
         ("xs", pa.list_(pa.float64())), ("ys", pa.list_(pa.float64())), ("conf", pa.float64())]
    )
    scores = evaluate.eval_scores(
        ray.data.from_arrow(pa.Table.from_pylist(props, schema=pr_schema)),
        ray.data.from_arrow(pa.Table.from_pylist(gts, schema=gt_schema)),
    ).to_pandas()
    r = scores.iloc[0]
    assert r["tp"] == 8 and r["fp"] == 20 and r["fn"] == 20
    assert r["precision"] == r["recall"] == r["f1"] == 0.2857142857142857
