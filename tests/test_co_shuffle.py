"""``_buckets.co_shuffle``: exact per-key grouping for any block layout
and any bucket count, checked through its mask-family callers."""

import hashlib
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from solaris_ray.raster import codec
from solaris_ray.sources import synth
from solaris_ray.stages import evaluate, masks, tiler
from solaris_ray.stages._buckets import co_shuffle, shuffle_width
from solaris_ray.stages.joins import build_join_index, join_tile_batch_to_pack, spatial_join

TS = 128


@pytest.fixture(scope="module")
def joined() -> pa.Table:
    """In-process join of 4 synth images: 171 rows over 15 tiles, two
    sparse images (1-3 rows per tile) and two dense ones (16-24)."""
    images, features = synth.gen_shard(np.arange(4), 4, seed=42, size=256)
    pack, buckets, res = build_join_index(features)
    return join_tile_batch_to_pack(tiler.plan_tiles(images, tile_size=TS),
                                   pack, buckets, res, 0.0)


def _blocks(tbl: pa.Table, layout: str) -> list[pa.Table]:
    if layout == "one_block":
        return [tbl]
    if layout == "row_per_block":
        sparse = tbl.filter(pc.is_in(tbl["image_id"], pa.array(
            sorted(set(tbl["image_id"].to_pylist()))[:2])))
        return [sparse.slice(i, 1) for i in range(sparse.num_rows)]
    # the largest tile's rows split across two blocks
    tid = Counter(tbl["tile_id"].to_pylist()).most_common(1)[0][0]
    mine = pc.equal(tbl["tile_id"], tid)
    rows = tbl.filter(mine)
    return [pa.concat_tables([tbl.filter(pc.invert(mine)), rows.slice(0, 1)]), rows.slice(1)]


def _reference(tbl: pa.Table) -> pd.DataFrame:
    """Per-tile ``tile_masks`` calls in this process."""
    tids = sorted(set(tbl["tile_id"].to_pylist()))
    parts = [masks.tile_masks(tbl.filter(pc.equal(tbl["tile_id"], t)), tile_size=TS)
             for t in tids]
    return pa.concat_tables(parts).to_pandas()


@pytest.mark.parametrize("n_buckets", [None, 1, 3])
@pytest.mark.parametrize("layout", ["one_block", "row_per_block", "split_tile"])
def test_masks_from_join_equals_per_tile_kernel(ray_session, joined, layout, n_buckets):
    import ray

    blocks = _blocks(joined, layout)
    out = masks.masks_from_join(ray.data.from_arrow(blocks), tile_size=TS,
                                n_buckets=n_buckets).to_pandas()
    got = out[masks.MASK_SCHEMA.names].sort_values("tile_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, _reference(pa.concat_tables(blocks)))


def test_masks_from_join_empty(ray_session, joined):
    """Empty input: zero rows.  Ray Data runs no task on an empty block,
    so the distributed result has no rows to carry a schema; the kernel's
    own empty output is MASK_SCHEMA."""
    import ray

    empty = joined.schema.empty_table()
    out = masks.masks_from_join(ray.data.from_arrow(empty), tile_size=TS)
    assert out.count() == 0
    assert masks.tile_masks(empty, tile_size=TS).schema == masks.MASK_SCHEMA


@pytest.mark.parametrize("n_buckets", [1, 3])
def test_co_shuffle_integer_key(ray_session, n_buckets):
    import ray

    rng = np.random.default_rng(0)
    k = rng.integers(-5, 40, 500)
    v = rng.integers(0, 1000, 500)
    ds = ray.data.from_arrow([pa.table({"k": k[i:i + 50], "v": v[i:i + 50]})
                              for i in range(0, 500, 50)])

    def _sum(g: pa.Table) -> pa.Table:
        assert len(set(g["k"].to_pylist())) == 1
        return pa.table({"k": g["k"].slice(0, 1), "s": [pc.sum(g["v"]).as_py()],
                         "n": [g.num_rows]})

    got = co_shuffle(ds, "k", _sum, n_buckets).to_pandas().sort_values("k")
    want = pd.DataFrame({"k": k, "v": v}).groupby("k")["v"].agg(["sum", "count"])
    assert got["k"].tolist() == want.index.tolist()
    assert got["s"].tolist() == want["sum"].tolist()
    assert got["n"].tolist() == want["count"].tolist()


def test_shuffle_width_follows_cpus_and_blocks(ray_session):
    """At least the session's CPUs; at least the input's blocks."""
    import ray

    from solaris_ray.runtime import session_cpus

    t = pa.table({"k": [1, 2, 3]})
    cpus = session_cpus()
    assert shuffle_width(ray.data.from_arrow(t)) == cpus
    many = ray.data.from_arrow([t] * (cpus + 3))
    assert shuffle_width(many) == cpus + 3
    # a lazy map keeps its input's planned block count
    assert shuffle_width(many.map_batches(lambda b: b, batch_format="pyarrow")) == cpus + 3


def _px_sha(buf: bytes) -> str:
    return hashlib.sha256(codec.decode(buf, "png").tobytes()).hexdigest()


def _digest(rows) -> str:
    return hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()


def test_pair_and_nodata_rows_pinned(ray_session):
    """zero_nodata_instances and pair_masks on the test_aoi_nodata
    fixture give the rows (pinned as order-insensitive digests) that
    their per-tile ``groupby(tile_id).map_groups`` plan gave."""
    import ray

    images, features = synth.gen_shard(np.arange(4), 4, seed=42, size=200)
    meta = images.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"])
    joined = spatial_join(tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=TS),
                          features).materialize()
    tiles = tiler.cut_tiles(ray.data.from_arrow(images), tile_size=TS).materialize()

    z = masks.zero_nodata_instances(masks.instance_masks(joined, tile_size=TS), tiles).to_pandas()
    assert len(z) == 184
    assert _digest([(r.tile_id, r.feature_id, r.mask_px, _px_sha(r.mask))
                    for r in z.itertuples()]) == (
        "1018628c06d9eac1e7ff31af93a74f12fb324e89f2d9f58ad8cb8542a98bb2f7")

    truth = masks.masks_from_join(joined, tile_size=TS).select_columns(["tile_id", "footprint"])
    pred = tiles.select_columns(["tile_id", "bytes"])
    p = evaluate.pair_masks(truth, pred).to_pandas()
    assert len(p) == 16
    assert _digest([(r.tile_id, _px_sha(r.truth), hashlib.sha256(r.pred).hexdigest())
                    for r in p.itertuples()]) == (
        "b26da65174058f44102b5446c24d52b4a4829e928448285fc34f774020f417e0")
