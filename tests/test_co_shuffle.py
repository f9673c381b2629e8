"""``_buckets.co_shuffle``: every row of a key in one ``fn`` call for any
block layout, key type and bucket count; ``per_key`` and the mask-family
callers built on it."""

import hashlib
import uuid
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from conftest import small_blocks
from solaris_ray.raster import codec
from solaris_ray.sources import synth
from solaris_ray.stages import evaluate, masks, tiler
from solaris_ray.stages._buckets import co_shuffle, per_key, shuffle_width
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


def _keyed(kind: str) -> tuple[pa.Table, list[str]]:
    """60 rows, row id ``i``; every key repeats, so any cut splits keys."""
    i = np.arange(60)
    if kind == "int":
        return pa.table({"i": i, "k": (i % 7) * 3 - 5}), ["k"]
    if kind == "float":  # -0.0 and +0.0 are one key
        vals = np.array([-0.0, 0.0, 1.5, -2.25, 1e300, 7.0, 0.1])
        return pa.table({"i": i, "k": vals[i % 7]}), ["k"]
    if kind == "string":  # "ab" and "ba" have equal byte sums
        vals = ["a", "b", "ab", "ba", "", "é", "z"]
        return pa.table({"i": i, "k": [vals[j % 7] for j in i]}), ["k"]
    if kind == "crc_twins":  # one crc32, so one bucket at any width
        return pa.table({"i": i, "k": [("plumless", "buckeroo")[j % 2] for j in i]}), ["k"]
    return pa.table({"i": i, "k1": i % 7, "k2": (i % 3).astype(str)}), ["k1", "k2"]


def _layout(tbl: pa.Table, layout: str) -> list[pa.Table]:
    if layout == "one_block":
        return [tbl]
    if layout == "row_per_block":
        return [tbl.slice(j, 1) for j in range(tbl.num_rows)]
    return [tbl.slice(0, 30), tbl.slice(30)]  # key_split: every key in both


def _key_of(tbl: pa.Table, keys: list[str]) -> list[tuple]:
    # +0.0 folds -0.0 into +0.0, as the shuffle's key hash does
    cols = [[v + 0.0 if isinstance(v, float) else v for v in tbl[c].to_pylist()]
            for c in keys]
    return list(zip(*cols))


@pytest.mark.parametrize("n_buckets", [1, 3])
def test_co_shuffle_integer_key(ray_session, n_buckets):
    """Per-bucket contract for int, float, string and two-column keys
    over three block layouts: ``fn`` sees the input columns only, every
    row arrives once, and every key's rows arrive in exactly one call."""
    import ray

    for kind in ("int", "float", "string", "crc_twins", "two_col"):
        tbl, keys = _keyed(kind)

        def _calls(bucket: pa.Table) -> pa.Table:
            assert bucket.column_names == tbl.column_names
            return pa.table({"i": bucket["i"],
                             "call": [uuid.uuid4().hex] * bucket.num_rows})

        for layout in ("one_block", "row_per_block", "key_split"):
            ds = ray.data.from_arrow(_layout(tbl, layout))
            # a one-column key goes in as a name, two as a list
            out = co_shuffle(ds, keys if len(keys) > 1 else keys[0], _calls,
                             n_buckets).to_pandas()
            assert sorted(out["i"]) == list(range(tbl.num_rows)), (kind, layout)
            call_of = dict(zip(out["i"], out["call"]))
            calls = {}
            for row, key in enumerate(_key_of(tbl, keys)):
                calls.setdefault(key, set()).add(call_of[row])
            assert all(len(c) == 1 for c in calls.values()), (kind, layout)
            if n_buckets == 1 or kind == "crc_twins":  # one call holds every key
                assert out["call"].nunique() == 1, (kind, layout)


@pytest.mark.parametrize("kind", ["int", "float", "string"])
def test_per_key_calls_fn_once_per_key(ray_session, kind):
    import ray

    tbl, keys = _keyed(kind)
    ds = ray.data.from_arrow(_layout(tbl, "row_per_block"))

    def _one(seg: pa.Table) -> pa.Table:
        assert len(set(seg["k"].to_pylist())) == 1  # -0.0 == +0.0
        return pa.table({"i": [min(seg["i"].to_pylist())], "n": [seg.num_rows]})

    out = co_shuffle(ds, "k", per_key("k", _one), 3).to_pandas()
    rows = {}
    for row, key in enumerate(_key_of(tbl, keys)):
        rows.setdefault(key, []).append(row)
    assert sorted(out["i"]) == sorted(min(r) for r in rows.values())
    assert sorted(out["n"]) == sorted(len(r) for r in rows.values())


def test_shuffle_width_follows_cpus_and_leaf_bytes(ray_session, monkeypatch):
    """At least the session's CPUs; at least the blocks that the plan's
    leaf bytes fill at ``target_max_block_size``.  Block counts play no
    part, and nothing runs."""
    import ray

    from solaris_ray.runtime import session_cpus
    from solaris_ray.stages import _buckets

    t = pa.table({"k": np.arange(1000, dtype=np.int64)})  # 8000 bytes
    union = ray.data.from_arrow([t] * 5).union(
        ray.data.from_arrow(t).map_batches(lambda b: b, batch_format="pyarrow"))
    assert _buckets.plan_bytes(union) == 6 * t.nbytes
    cpus = session_cpus()
    assert shuffle_width(union) == cpus
    monkeypatch.setattr(_buckets, "session_cpus", lambda: 1)
    assert shuffle_width(union) == 1  # two small tables in a union: one task at 1 CPU
    with small_blocks(ray.data.from_arrow(t)):  # 1000-byte blocks
        wide = ray.data.from_arrow(t).union(ray.data.from_arrow(t)).repartition(1)
    assert shuffle_width(wide) == 16
    # materialized, the leaf is the blocks themselves
    assert shuffle_width(ray.data.from_arrow(t).materialize()) == 1


def test_session_cpus_count_the_cpus_this_process_may_use(ray_session):
    import os

    import ray

    from solaris_ray.runtime import session_cpus

    declared = int(ray.cluster_resources()["CPU"])
    assert session_cpus() == min(declared, len(os.sched_getaffinity(0)))


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
