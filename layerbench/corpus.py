"""Seeded benchmark inputs, generated during set-up, before any timing.

``sources.synth`` is the library's load generator; it runs only here.
The same seed gives byte-identical inputs.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from solaris_ray.geom.affine import Affine
from solaris_ray.sources import synth

PLAN_COLUMNS = ["image_id", "w", "h", "gt_a", "gt_b", "gt_c", "gt_d", "gt_e", "gt_f"]
# shards alternate two image sizes: 320 px is not a multiple of the
# 128 px tile, so edge tiles are padded and the closed-form tile count
# is not trivially n * 4
SIZES = (256, 320)
# synth draws per image 24-63 buildings in the dense city cluster or
# 1-7 in a sparse one, and 0-2 roads; the format follows the index parity
DENSE_BUILDINGS = range(24, 64)
SPARSE_BUILDINGS = range(1, 8)
ROADS = range(0, 3)


@dataclass
class ImageCorpus:
    """Pixel corpus on disk, one parquet file per shard, plus its labels."""

    images_dir: str
    shard_paths: list[str]
    meta: pa.Table  # every image column except pixel bytes
    features: pa.Table
    sample: pa.Table  # full rows (with bytes) of a few images, for pixel checks


@dataclass
class LabelLayer:
    """Label-only layer: image metadata on disk, no pixel bytes anywhere."""

    meta_dir: str
    meta: pa.Table
    features: pa.Table
    ground_truth: pa.Table
    proposals: pa.Table


def stratified_indices(n_images: int, seed: int) -> np.ndarray:
    """Indices of the seed's image stream that follow one fixed plan.

    Half the images are dense and half sparse; building counts, road
    counts and formats are spread evenly over their ranges.  Every seed
    then yields the same number of features of each kind, so the work a
    pass does barely moves between seeds; the seed still picks the
    images, their geometry and their pixels.
    """
    plan: Counter = Counter()
    for counts, n in ((DENSE_BUILDINGS, n_images // 2),
                      (SPARSE_BUILDINGS, n_images - n_images // 2)):
        for k in range(n):
            plan[(counts[k * len(counts) // n], ROADS[(k // 2) % len(ROADS)], k % 2)] += 1
    picked = []
    for i in range(1_000_000):
        p = synth.image_params(i, n_images, seed)
        key = (p["n_buildings"], p["n_roads"], i % 2)
        if plan[key]:
            plan[key] -= 1
            picked.append(i)
            if len(picked) == n_images:
                return np.array(picked, dtype=np.int64)
    raise RuntimeError(f"seed {seed}: the image stream never met the plan {dict(+plan)}")


def rings(tbl: pa.Table) -> list[np.ndarray]:
    """The xs/ys list columns of ``tbl`` as (n, 2) coordinate arrays."""
    return [np.stack([np.asarray(x), np.asarray(y)], axis=1)
            for x, y in zip(tbl["xs"].to_pylist(), tbl["ys"].to_pylist())]


def image_corpus(out_dir: str, n_images: int, n_shards: int, seed: int) -> ImageCorpus:
    """Write ``n_images`` synthetic images as ``n_shards`` parquet files."""
    images_dir = os.path.join(out_dir, "images")
    os.makedirs(images_dir, exist_ok=True)
    order = stratified_indices(n_images, seed)
    picks = set(np.random.default_rng([seed, 37]).choice(order, 4, replace=False).tolist())
    paths, metas, feats, sample = [], [], [], []
    for s in range(n_shards):
        idx = order[s * n_images // n_shards: (s + 1) * n_images // n_shards]
        images, features = synth.gen_shard(idx, n_images, seed, SIZES[s % 2])
        path = os.path.join(images_dir, f"part-{s:03d}.parquet")
        pq.write_table(images, path)
        paths.append(path)
        metas.append(images.drop_columns(["bytes"]))
        feats.append(features)
        rows = [i for i, k in enumerate(idx.tolist()) if k in picks]
        if rows:
            sample.append(images.take(pa.array(rows)))
    return ImageCorpus(images_dir, paths, pa.concat_tables(metas),
                       pa.concat_tables(feats), pa.concat_tables(sample))


def label_layer(out_dir: str, n_images: int, seed: int, size: int = 256) -> LabelLayer:
    """Image metadata + features + proposals, without drawing any pixels.

    The georeference is the one ``synth.gen_image`` gives the same image
    (origin from ``synth.image_params``, ``synth.PX`` metres per pixel),
    so the features land on the tiles exactly as in the pixel corpus.
    """
    meta_dir = os.path.join(out_dir, "labels")
    os.makedirs(meta_dir, exist_ok=True)
    cols: dict[str, list] = {k: [] for k in PLAN_COLUMNS}
    order = stratified_indices(n_images, seed)
    for i in order.tolist():
        x0, y0 = synth.image_params(i, n_images, seed)["origin"]
        t = Affine.from_origin(x0, y0, synth.PX, synth.PX)
        cols["image_id"].append(f"img_{i:08d}")
        cols["w"].append(size)
        cols["h"].append(size)
        for k in "abcdef":
            cols[f"gt_{k}"].append(getattr(t, k))
    meta = pa.table(
        {k: pa.array(v, pa.int32() if k in ("w", "h") else None) for k, v in cols.items()}
    )
    pq.write_table(meta, os.path.join(meta_dir, "part-000.parquet"))
    features = synth.gen_features_shard(order, n_images, seed, size)
    ground_truth = features.filter(pc.equal(features["class"], "building"))
    return LabelLayer(meta_dir, meta, features, ground_truth,
                      synth.gen_proposals(features, seed))
