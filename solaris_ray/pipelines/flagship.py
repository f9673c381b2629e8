"""Flagship pipeline: synthetic image corpus -> tiles -> spatial join.

This is the headline tiles+join-rows/sec path from BASELINE.json:
decode + tile + encode every image (RasterTiler semantics), then clip
spatial join of tile bounds against the building/road feature layer
(VectorTiler semantics).  The corpus is generated distributed — a
trillion-image table is just index ranges fanned out (sources.synth is
a pure function of (i, seed)).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from ..runtime import session_cpus
from ..sources import synth
from ..stages import tiler
from ..stages.joins import broadcast_spatial_join_tasks, build_join_index, spatial_join


def synthetic_images_ds(n_images: int, seed: int = 42, size: int = 256,
                        blocks: int | None = None):
    """Distributed corpus generation: range(n) -> map_batches(gen)."""
    import ray

    # ~8 images per task: urban/rural per-image cost varies 3-4x, so
    # fine tasks balance the skew tail (measured 17.7s -> 8.0s at 32
    # cpus for 6400 images vs 64-image tasks)
    ds = ray.data.range(n_images, override_num_blocks=blocks or max(8, n_images // 8))

    def _gen(batch: pa.Table) -> pa.Table:
        idx = batch["id"].to_numpy()
        images, _ = synth.gen_shard(idx, n_images, seed, size)
        return images

    return ds.map_batches(_gen, batch_format="pyarrow", batch_size=None)


def flagship(n_images: int = 400, seed: int = 42, size: int = 256,
             tile_size: int = 128, warmup: bool = False, blocks: int | None = None) -> dict:
    """Run generate -> tile -> join; return counts + timings.

    Tiles are materialized once (bytes stay in the object store); the
    join streams over the bounds columns only — pixels never enter the
    shuffle (SURVEY.md §7: prune at the stage boundary).

    ``warmup=True`` runs a tiny end-to-end pass first so worker
    startup / module import cost is excluded from the timed run
    (steady-state throughput is what the scaling criterion compares).
    The warmup fans out over >= 2x the session's CPU count so EVERY
    worker process the timed run will use is already imported: a
    narrow warmup (round 3's, 8 tasks) left ~24 of 32 workers cold and
    the first timed wave paid ~1 s of imports per cold worker — the
    whole of the r3 tiles-leg "regression" (4.5 s vs 0.7 s warm).
    """
    import ray

    if warmup:
        cpus = session_cpus()
        flagship(n_images=max(64, 2 * cpus), seed=seed, size=size,
                 tile_size=tile_size, warmup=False, blocks=2 * cpus)

    t0 = time.time()
    # feature-layer generation AND index construction are independent
    # of the tiles phase: run them as raw tasks so everything the join
    # needs (the built broadcast index) is ready the moment the tiler
    # finishes — index build never sits on the critical path
    @ray.remote
    def _gen_feats(lo: int, hi: int):
        return synth.gen_features_shard(np.arange(lo, hi), n_images, seed, size)

    @ray.remote
    def _build_index(*parts):
        feats = pa.concat_tables([t for t in parts if t.num_rows])
        return build_join_index(feats)

    step = max(64, n_images // 64)
    feat_refs = [
        _gen_feats.remote(lo, min(lo + step, n_images)) for lo in range(0, n_images, step)
    ]
    index_ref = _build_index.remote(*feat_refs)
    images = synthetic_images_ds(n_images, seed, size, blocks=blocks)
    # intermediate tiles: stored PNG (level 0) — deflate buys <=4% on
    # noisy imagery at 16x the CPU; persisted outputs re-encode at the
    # default level (codec.encode docstring)
    tiles = tiler.cut_tiles(
        images, tile_size=tile_size, batch_size=None, encode_level=0
    ).materialize()
    n_tiles = tiles.count()
    t_tiles = time.time() - t0

    t1 = time.time()
    # the spec projection runs inside the join task (spec_columns): no
    # separate select scan over the materialized tile blocks
    joined = broadcast_spatial_join_tasks(
        tiles, index_ref=index_ref,
        spec_columns=["tile_id", "image_id", "cell", "x0", "y0", "x1", "y1"],
        out_columns=["tile_id", "feature_id"],
        # per-block batches: tile blocks enter zero-copy (no concat of
        # the PNG bytes column the projection immediately drops)
        batch_size=None,
    )
    n_join = joined.count()
    t_join = time.time() - t1
    total = time.time() - t0
    return {
        "n_images": n_images,
        "n_tiles": n_tiles,
        "n_join_rows": n_join,
        "tiles_sec": round(t_tiles, 3),
        "join_sec": round(t_join, 3),
        "total_sec": round(total, 3),
        "tiles_join_rows_per_sec": round((n_tiles + n_join) / total, 1),
    }


def flagship_resumable(out_dir: str, n_images: int = 400, n_partitions: int = 8,
                       seed: int = 42, size: int = 256, tile_size: int = 128) -> dict:
    """Checkpoint-resumable flagship: the image-index range is split
    into partitions; each pending partition runs generate -> tile ->
    join and lands in ``out/part={pid}/`` with a manifest entry
    (lineage = its index range + corpus seed, metrics = rows/s).
    Re-invocation skips finished partitions (state.manifest).
    """
    from ..state.manifest import run_partitioned

    bounds = [
        (pid, pid * n_images // n_partitions, (pid + 1) * n_images // n_partitions)
        for pid in range(n_partitions)
    ]

    def make_ds(pid):
        import ray

        lo, hi = bounds[pid][1], bounds[pid][2]
        ds = ray.data.range(hi - lo, override_num_blocks=max(1, (hi - lo) // 8))

        def _gen(batch: pa.Table) -> pa.Table:
            images, _ = synth.gen_shard(batch["id"].to_numpy() + lo, n_images, seed, size)
            return images

        images = ds.map_batches(_gen, batch_format="pyarrow", batch_size=None)
        tiles = tiler.cut_tiles(images, tile_size=tile_size)
        feats = synth.gen_features_shard(np.arange(lo, hi), n_images, seed, size)
        joined = spatial_join(
            tiles.select_columns(["tile_id", "image_id", "cell", "x0", "y0", "x1", "y1"]),
            feats,
        )
        return joined.drop_columns(["xs", "ys"])

    return run_partitioned(
        out_dir,
        [b[0] for b in bounds],
        make_ds,
        lineage_of=lambda pid: {
            "image_range": [bounds[pid][1], bounds[pid][2]],
            "seed": seed,
            "size": size,
            "tile_size": tile_size,
        },
    )
