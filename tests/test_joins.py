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
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_blocks
from solaris_ray.geom import cells
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

        from solaris_ray.stages.joins import cell_partitioned_join, spatial_join_tasks

        imgs, feats, plan = corpus
        got = _sorted_rows(cell_partitioned_join(rd.from_arrow(plan), rd.from_arrow(feats)))
        want = brute_force_join(plan, feats)
        got_pairs = list(zip(got["tile_id"].to_pylist(), got["feature_id"].to_pylist()))
        assert got_pairs == [(a, b) for a, b, _ in want]
        # every column, the tile's own cell and the list geometry included
        assert got.equals(_sorted_rows(spatial_join_tasks(rd.from_arrow(plan), feats)))

    def test_cell_partitioned_with_salting_equals_broadcast(self, corpus, monkeypatch):
        """Force hot-cell splitting on every cell: exactly-once emission
        must survive mixed resolutions (owner test is res-aware)."""
        import ray.data as rd

        from solaris_ray.stages import joins

        imgs, feats, plan = corpus
        # the hot set is planned on the driver, so the constant reaches it
        monkeypatch.setattr(joins, "HOT_CELL_FACTOR", 0.1)
        specs, layer = rd.from_arrow(plan), rd.from_arrow(feats)
        assert joins._hot_cells(specs, layer, 13)
        got = _sorted_rows(joins.cell_partitioned_join(specs, layer))
        want = brute_force_join(plan, feats)
        got_pairs = list(zip(got["tile_id"].to_pylist(), got["feature_id"].to_pylist()))
        assert got_pairs == [(a, b) for a, b, _ in want]
        assert got.equals(_sorted_rows(joins.spatial_join_tasks(specs, feats)))


def _sorted_rows(ds) -> pa.Table:
    """A join Dataset's rows as one table in (tile_id, feature_id) order."""
    import ray

    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    return pa.concat_tables(blocks).combine_chunks().sort_by(
        [("tile_id", "ascending"), ("feature_id", "ascending")])


@pytest.mark.parametrize("chunk", [1, 100])
def test_candidate_slices_keep_the_rows(corpus, monkeypatch, chunk):
    """Expanding candidates a few at a time (one tile row per slice at
    chunk 1) emits the very table one slice does."""
    from solaris_ray.stages import joins

    imgs, feats, plan = corpus
    pack = FeaturePack.from_arrow(feats)
    buckets = build_buckets(pack, cell_res=13)
    want = join_tile_batch_to_pack(plan, pack, buckets, 13, 0.0)
    monkeypatch.setattr(joins, "CANDIDATE_CHUNK", chunk)
    assert join_tile_batch_to_pack(plan, pack, buckets, 13, 0.0).equals(want)


def test_spatial_join_empty_feature_layer(ray_session, corpus):
    """An empty layer, as a table, as a Dataset of empty blocks or of
    blocks without columns, joins to zero rows of the join schema; so do
    zero tile specs."""
    import ray.data as rd

    from solaris_ray.stages.joins import JOIN_SCHEMA, cell_partitioned_join, spatial_join

    imgs, feats, plan = corpus
    empty = feats.slice(0, 0)
    layers = {
        "table": empty,
        "empty blocks": rd.from_arrow(empty),
        "no columns": rd.from_arrow(feats).filter(lambda r: False),
    }
    for name, layer in layers.items():
        out = spatial_join(rd.from_arrow(plan), layer).materialize()
        assert out.count() == 0 and out.schema().names == JOIN_SCHEMA.names, name
    out = cell_partitioned_join(rd.from_arrow(plan), rd.from_arrow(empty)).materialize()
    assert out.count() == 0 and out.schema().names == JOIN_SCHEMA.names
    no_specs = rd.from_arrow(plan.slice(0, 0))
    assert spatial_join(no_specs, feats).count() == 0
    out = spatial_join(no_specs, feats, broadcast_limit_bytes=1).materialize()
    assert out.count() == 0 and out.schema().names == JOIN_SCHEMA.names


# cell edge at resolution 13: 2048 world units, cell edges on multiples
_EDGE = 2048.0


@st.composite
def _join_world(draw):
    """Tile specs over a 2 x 2-cell patch whose grid straddles the cell
    edges, random rectangles and road lines, and 600 small rectangles in
    one cell, enough to make it hot."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ts = draw(st.floats(300, 1500))
    ox, oy = draw(st.floats(-ts, 0)), draw(st.floats(-ts, 0))
    n = int(np.ceil((2 * _EDGE - ox) / ts))
    gx, gy = np.meshgrid(np.arange(n), np.arange(n))
    x0, y0 = ox + gx.ravel() * ts, oy + gy.ravel() * ts
    tiles = pa.table({
        "tile_id": [f"t{i}" for i in range(len(x0))],
        "image_id": ["img"] * len(x0),
        "cell": pa.array(cells.cell_of_point(x0 + ts / 2, y0 + ts / 2, 13).astype(np.int64)),
        "x0": x0, "y0": y0, "x1": x0 + ts, "y1": y0 + ts,
    })
    n_rect, n_road = draw(st.integers(0, 40)), draw(st.integers(0, 12))
    cx = np.r_[rng.uniform(0, 2 * _EDGE, n_rect), rng.uniform(_EDGE + 10, 2 * _EDGE - 10, 600)]
    cy = np.r_[rng.uniform(0, 2 * _EDGE, n_rect), rng.uniform(10, _EDGE - 10, 600)]
    hw = np.r_[rng.uniform(5, 700, n_rect), rng.uniform(1, 10, 600)]
    hh = np.r_[rng.uniform(5, 700, n_rect), rng.uniform(1, 10, 600)]
    xs = [[a - w, a + w, a + w, a - w] for a, w in zip(cx, hw)]
    ys = [[b - h, b - h, b + h, b + h] for b, h in zip(cy, hh)]
    for _ in range(n_road):
        k = int(rng.integers(2, 6))
        xs.append(rng.uniform(-200, 2 * _EDGE + 200, k).tolist())
        ys.append(rng.uniform(-200, 2 * _EDGE + 200, k).tolist())
    nf = len(xs)
    feats = pa.table({
        "feature_id": pa.array(np.arange(nf, dtype=np.int64)),
        "image_id": [""] * nf,
        "class": ["building"] * (nf - n_road) + ["road"] * n_road,
        "xs": pa.array(xs, pa.list_(pa.float64())),
        "ys": pa.array(ys, pa.list_(pa.float64())),
        "minx": [min(v) for v in xs], "miny": [min(v) for v in ys],
        "maxx": [max(v) for v in xs], "maxy": [max(v) for v in ys],
    })
    return tiles, feats


@settings(max_examples=4, deadline=None)
@given(_join_world())
def test_cell_partitioned_parity_property(ray_session, world):
    """The partitioned plan emits the broadcast plan's rows, every
    column, with a hot cell salted, at two input block counts and two
    block sizes that give two shuffle widths."""
    import contextlib

    import ray.data as rd

    from solaris_ray.stages import joins
    from solaris_ray.stages._buckets import co_shuffle, shuffle_width

    tiles, feats = world
    want = _sorted_rows(joins.spatial_join_tasks(rd.from_arrow(tiles), feats))
    assert joins._hot_cells(rd.from_arrow(tiles), rd.from_arrow(feats), 13)
    widths = []

    def _spy(ds, keys, fn, n_buckets=None):
        widths.append(shuffle_width(ds))
        return co_shuffle(ds, keys, fn, n_buckets)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(joins, "co_shuffle", _spy)
        for blocks in (1, 3):
            with small_blocks(rd.from_arrow(feats)) if blocks > 1 else contextlib.nullcontext():
                got = joins.cell_partitioned_join(
                    rd.from_arrow(tiles).repartition(blocks), rd.from_arrow(feats).repartition(blocks))
                assert _sorted_rows(got).equals(want)
    assert widths[0] != widths[1]


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
    small = spatial_join(specs, features, out_columns=cols)  # broadcast path (fits budget)
    specs2 = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128)
    forced = spatial_join(specs2, features, broadcast_limit_bytes=1, out_columns=cols)  # forced partitioned
    # out_columns projects the rows on both plans
    assert small.schema().names == forced.schema().names == cols
    small = small.to_pandas().sort_values(["tile_id", "feature_id"]).reset_index(drop=True)
    forced = forced.to_pandas().sort_values(["tile_id", "feature_id"]).reset_index(drop=True)
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
