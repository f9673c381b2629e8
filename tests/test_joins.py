"""Spatial-join (vector tiler) tests.

Parity targets (BASELINE.json north_rule): join output ROW COUNTS and
tile assignments must match reference semantics exactly.  The oracle
here is a brute-force single-process clip over all (tile, feature)
pairs — the same quadratic loop the reference effectively runs
(vector_tile.py: per-tile R-tree search + clip).
"""

import numpy as np
import pyarrow as pa
import pytest

from solaris_ray.geom.poly import clip_ring_to_box, clip_line_to_box, ring_areas, ring_lengths
from solaris_ray.sources.synth import gen_shard
from solaris_ray.stages.joins import (
    FeaturePack,
    build_buckets,
    join_tile_batch_to_pack,
)
from solaris_ray.stages.tiler import plan_tiles


def brute_force_join(plan: pa.Table, feats: pa.Table, min_partial_perc: float = 0.0):
    """O(T*F) oracle: (tile_id, feature_id, partialDec) triples."""
    rows = []
    pack = FeaturePack.from_arrow(feats)
    for t in plan.to_pylist():
        for fi in range(len(pack)):
            ring = pack.ring(fi)
            b = pack.bbox[fi]
            if not (b[0] < t["x1"] and b[2] > t["x0"] and b[1] < t["y1"] and b[3] > t["y0"]):
                continue
            if pack.is_poly[fi]:
                clipped = clip_ring_to_box(ring, t["x0"], t["y0"], t["x1"], t["y1"])
                if len(clipped) < 3:
                    continue
                area = float(ring_areas(clipped, np.array([0, len(clipped)]))[0])
                if area <= 0:
                    continue
                partial = min(area / pack.origarea[fi], 1.0)
            else:
                pieces = clip_line_to_box(ring, t["x0"], t["y0"], t["x1"], t["y1"])
                if not pieces:
                    continue
                ln = sum(
                    float(ring_lengths(p, np.array([0, len(p)]), closed=False)[0])
                    for p in pieces
                )
                if ln <= 0:
                    continue
                partial = min(ln / pack.origlen[fi], 1.0)
            if partial < min_partial_perc:
                continue
            rows.append((t["tile_id"], int(pack.feature_id[fi]), partial))
    return sorted(rows)


@pytest.fixture(scope="module")
def corpus():
    imgs, feats = gen_shard(np.arange(12), 12, seed=42, size=256)
    plan = plan_tiles(imgs, tile_size=128)
    return imgs, feats, plan


class TestLocalJoin:
    def test_broadcast_kernel_matches_brute_force(self, corpus):
        imgs, feats, plan = corpus
        pack = FeaturePack.from_arrow(feats)
        buckets = build_buckets(pack, cell_res=13)
        got = join_tile_batch_to_pack(plan, pack, buckets, 13, 0.0)
        got_rows = sorted(
            zip(
                got["tile_id"].to_pylist(),
                got["feature_id"].to_pylist(),
                got["partialDec"].to_pylist(),
            )
        )
        want = brute_force_join(plan, feats)
        assert [(a, b) for a, b, _ in got_rows] == [(a, b) for a, b, _ in want]
        np.testing.assert_allclose(
            [p for *_, p in got_rows], [p for *_, p in want], rtol=1e-12
        )

    def test_min_partial_perc_filter(self, corpus):
        imgs, feats, plan = corpus
        pack = FeaturePack.from_arrow(feats)
        buckets = build_buckets(pack, cell_res=13)
        all_rows = join_tile_batch_to_pack(plan, pack, buckets, 13, 0.0)
        kept = join_tile_batch_to_pack(plan, pack, buckets, 13, 0.5)
        n_expected = sum(1 for p in all_rows["partialDec"].to_pylist() if p >= 0.5)
        assert kept.num_rows == n_expected < all_rows.num_rows

    def test_straddling_features_split_and_truncated(self, corpus):
        """A feature crossing a tile boundary appears in >1 tile with
        partialDec < 1 and truncated=1 (clip_gdf semantics)."""
        imgs, feats, plan = corpus
        pack = FeaturePack.from_arrow(feats)
        buckets = build_buckets(pack, cell_res=13)
        got = join_tile_batch_to_pack(plan, pack, buckets, 13, 0.0)
        fid = np.asarray(got["feature_id"].to_pylist())
        partial = np.asarray(got["partialDec"].to_pylist())
        trunc = np.asarray(got["truncated"].to_pylist())
        multi = [f for f in np.unique(fid) if (fid == f).sum() > 1]
        assert multi, "corpus must contain boundary-straddling features"
        for f in multi[:5]:
            m = fid == f
            assert (partial[m] < 1.0).all()
            assert trunc[m].all()
        # partialDec of polygon pieces sums to ~1 across the OWNING
        # image's tiles (images overlap spatially, so other images'
        # tiles may add extra pieces — exclude them)
        polys = np.asarray(got["class"].to_pylist()) == "building"
        tile_img = np.asarray(got["image_id"].to_pylist())
        feat_img = dict(
            zip(feats["feature_id"].to_pylist(), feats["image_id"].to_pylist())
        )
        for f in multi[:5]:
            m = (fid == f) & polys & (tile_img == feat_img[int(f)])
            if m.any():
                assert abs(partial[m].sum() - 1.0) < 1e-9


@pytest.mark.usefixtures("ray_session")
class TestJoinOnRay:
    def test_broadcast_join_dataset(self, corpus):
        import ray.data as rd

        from solaris_ray.stages.joins import spatial_join

        imgs, feats, plan = corpus
        ds = spatial_join(rd.from_arrow(plan), feats)
        got = ds.to_pandas()
        want = brute_force_join(plan, feats)
        got_pairs = sorted(zip(got["tile_id"], got["feature_id"]))
        assert got_pairs == [(a, b) for a, b, _ in want]

    def test_task_mode_join_equals_kernel(self, corpus):
        """The distributed broadcast join emits exactly the rows of one
        in-process kernel call, every column including the geometry."""
        import ray
        import ray.data as rd

        from solaris_ray.stages.joins import (
            broadcast_spatial_join_tasks,
            build_join_index,
        )

        imgs, feats, plan = corpus
        # extra column rides along to prove spec_columns projection
        plan2 = plan.append_column(
            "noise", pa.array(np.arange(plan.num_rows, dtype=np.int64))
        )
        index = build_join_index(feats)
        got_t = broadcast_spatial_join_tasks(
            rd.from_arrow(plan2), ray.put(index),
            spec_columns=plan.column_names,
        ).to_pandas()
        pack, buckets, res = index
        got_k = join_tile_batch_to_pack(plan, pack, buckets, res, 0.0).to_pandas()
        key = ["tile_id", "feature_id"]
        got_t = got_t.sort_values(key).reset_index(drop=True)
        got_k = got_k.sort_values(key).reset_index(drop=True)
        assert len(got_k) > 0
        assert list(got_t.columns) == list(got_k.columns)
        for c in got_k.columns:
            ta = [list(v) if isinstance(v, np.ndarray) else v for v in got_t[c]]
            ka = [list(v) if isinstance(v, np.ndarray) else v for v in got_k[c]]
            assert ta == ka, c  # bit-identical incl. list geometry

    def test_cell_partitioned_equals_broadcast(self, corpus):
        import ray.data as rd

        from solaris_ray.stages.joins import cell_partitioned_join

        imgs, feats, plan = corpus
        ds = cell_partitioned_join(rd.from_arrow(plan), rd.from_arrow(feats))
        got = ds.to_pandas()
        want = brute_force_join(plan, feats)
        got_pairs = sorted(zip(got["tile_id"], got["feature_id"]))
        assert got_pairs == [(a, b) for a, b, _ in want]

    def test_cell_partitioned_with_salting_equals_broadcast(self, corpus):
        """Force hot-cell splitting on every cell: exactly-once emission
        must survive mixed resolutions (owner test is res-aware)."""
        import ray.data as rd

        from solaris_ray.stages.joins import cell_partitioned_join

        imgs, feats, plan = corpus
        ds = cell_partitioned_join(
            rd.from_arrow(plan), rd.from_arrow(feats), hot_cell_factor=0.1
        )
        got = ds.to_pandas()
        want = brute_force_join(plan, feats)
        got_pairs = sorted(zip(got["tile_id"], got["feature_id"]))
        assert got_pairs == [(a, b) for a, b, _ in want]


def test_partitioned_knn_parity(ray_session):
    """cell_partitioned_knn_join must be bit-identical to the broadcast
    path (the clip-join parity discipline applied to kNN)."""
    import ray

    import pyarrow as pa

    from solaris_ray.stages import knn

    rng = np.random.default_rng(9)
    nf, npts = 400, 1000
    feats = pa.table(
        {
            "feature_id": pa.array(np.arange(nf, dtype=np.int64)),
            "cx": pa.array(rng.uniform(0, 3200, nf)),
            "cy": pa.array(rng.uniform(0, 3200, nf)),
        }
    )
    pts_tbl = pa.table(
        {
            "point_id": pa.array(np.arange(npts, dtype=np.int64)),
            "x": pa.array(rng.uniform(0, 3200, npts)),
            "y": pa.array(rng.uniform(0, 3200, npts)),
        }
    )
    a = knn.broadcast_knn_join(
        ray.data.from_arrow(pts_tbl), feats, k=3, cell_res=16
    ).to_pandas().sort_values(["point_id", "rank"]).reset_index(drop=True)
    b = knn.cell_partitioned_knn_join(
        ray.data.from_arrow(pts_tbl), ray.data.from_arrow(feats), k=3, cell_res=16
    ).to_pandas().sort_values(["point_id", "rank"]).reset_index(drop=True)
    assert len(a) == len(b) == npts * 3
    assert (a["feature_id"].values == b["feature_id"].values).all()
    assert np.allclose(a["d2"].values, b["d2"].values, rtol=0, atol=0)


def test_partitioned_knn_sparse_features(ray_session):
    """Fewer features than k and far-apart clusters: the multi-pass halo
    expansion must still find everything (straggler path)."""
    import ray

    import pyarrow as pa

    from solaris_ray.stages import knn

    feats = pa.table(
        {
            "feature_id": pa.array([0, 1], pa.int64()),
            "cx": pa.array([10.0, 3000.0]),
            "cy": pa.array([10.0, 3000.0]),
        }
    )
    pts_tbl = pa.table(
        {
            "point_id": pa.array([0, 1], pa.int64()),
            "x": pa.array([1500.0, 20.0]),
            "y": pa.array([1500.0, 20.0]),
        }
    )
    out = knn.cell_partitioned_knn_join(
        ray.data.from_arrow(pts_tbl), ray.data.from_arrow(feats), k=3, cell_res=16
    ).to_pandas().sort_values(["point_id", "rank"])
    # k=3 but only 2 features exist -> 2 rows per point
    assert len(out) == 4
    assert set(out["feature_id"]) == {0, 1}


def test_spatial_join_auto_select_parity(ray_session):
    """spatial_join picks broadcast for small layers and the
    cell-partitioned path when forced small limit; outputs identical."""
    import ray

    from solaris_ray.sources import synth
    from solaris_ray.stages import tiler
    from solaris_ray.stages.joins import spatial_join

    images, features = synth.gen_shard(np.arange(8), 8, seed=42, size=256)
    meta = images.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    specs = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128)
    cols = ["tile_id", "feature_id", "origarea", "partialDec", "truncated"]
    small = (
        spatial_join(specs, features)  # broadcast path (fits budget)
        .to_pandas()[cols].sort_values(["tile_id", "feature_id"]).reset_index(drop=True)
    )
    specs2 = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128)
    forced = (
        spatial_join(specs2, features, broadcast_limit_bytes=1)  # forced partitioned
        .to_pandas()[cols].sort_values(["tile_id", "feature_id"]).reset_index(drop=True)
    )
    assert len(small) == len(forced) > 0
    assert (small["feature_id"].values == forced["feature_id"].values).all()
    assert np.allclose(small["partialDec"].values, forced["partialDec"].values, atol=0)


def test_spatial_join_dataset_input(ray_session):
    """Dataset-typed feature layer: small -> gathered broadcast path;
    forced tiny limit -> partitioned path; identical rows."""
    import ray

    from solaris_ray.sources import synth
    from solaris_ray.stages import tiler
    from solaris_ray.stages.joins import spatial_join

    images, features = synth.gen_shard(np.arange(6), 6, seed=42, size=256)
    meta = images.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    cols = ["tile_id", "feature_id", "partialDec"]
    a = (
        spatial_join(
            tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128),
            ray.data.from_arrow(features).materialize(),
        )
        .to_pandas()[cols].sort_values(cols[:2]).reset_index(drop=True)
    )
    b = (
        spatial_join(
            tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128),
            ray.data.from_arrow(features).materialize(),
            broadcast_limit_bytes=1,
        )
        .to_pandas()[cols].sort_values(cols[:2]).reset_index(drop=True)
    )
    assert len(a) == len(b) > 0
    assert (a["feature_id"].values == b["feature_id"].values).all()


def test_partitioned_knn_escalation_pass_parity(ray_session):
    """ADVICE r2: escalation passes restrict the FEATURE side to the
    straggler cell set.  Force a real second halo pass (brute_cutoff=0)
    on a sparse world and check bit-identical output vs broadcast."""
    import ray

    import pyarrow as pa

    from solaris_ray.stages import knn

    rng = np.random.default_rng(31)
    # dense blob + far-away lonely points whose k-th neighbour is
    # outside the R=1 halo -> guaranteed stragglers
    nf = 300
    feats = pa.table(
        {
            "feature_id": pa.array(np.arange(nf, dtype=np.int64)),
            "cx": pa.array(rng.uniform(0, 500, nf)),
            "cy": pa.array(rng.uniform(0, 500, nf)),
        }
    )
    pts_tbl = pa.table(
        {
            "point_id": pa.array(np.arange(20, dtype=np.int64)),
            "x": pa.array(np.concatenate([rng.uniform(0, 500, 15), rng.uniform(2800, 3200, 5)])),
            "y": pa.array(np.concatenate([rng.uniform(0, 500, 15), rng.uniform(2800, 3200, 5)])),
        }
    )
    a = knn.broadcast_knn_join(
        ray.data.from_arrow(pts_tbl), feats, k=3, cell_res=16
    ).to_pandas().sort_values(["point_id", "rank"]).reset_index(drop=True)
    b = knn.cell_partitioned_knn_join(
        ray.data.from_arrow(pts_tbl), ray.data.from_arrow(feats), k=3,
        cell_res=16, brute_cutoff=0,
    ).to_pandas().sort_values(["point_id", "rank"]).reset_index(drop=True)
    assert len(a) == len(b) == 60
    assert (a["feature_id"].values == b["feature_id"].values).all()
    assert np.allclose(a["d2"].values, b["d2"].values, rtol=0, atol=0)


def test_task_mode_join_requires_object_ref(ray_session):
    """Raw tables/tuples have no stable cache identity (id() reuse
    could serve a stale index) — the task-mode join must refuse them."""
    import pytest
    import ray.data as rd

    from solaris_ray.stages.joins import broadcast_spatial_join_tasks

    with pytest.raises(TypeError, match="ObjectRef"):
        broadcast_spatial_join_tasks(
            rd.from_items([{"tile_id": "t"}]), index_ref=(None, None)
        )
