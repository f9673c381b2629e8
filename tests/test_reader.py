"""The image reader's read width: one block per shard file or more,
never a split file while the session has no more CPUs than files."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from ray.data import DataContext

from solaris_ray.sources import synth
from solaris_ray.sources.reader import read_blocks, read_images

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIB = 1 << 20

FUSED = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {repo!r})

    import pyarrow.parquet as pq
    import ray

    from solaris_ray.sources.reader import read_images
    from solaris_ray.stages import joins, tiler

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR",
             runtime_env={{"env_vars": {{"PYTHONPATH": {repo!r}}}}})
    index = ray.put(joins.build_join_index(pq.read_table({features!r})))
    tiles = tiler.cut_tiles(read_images({images!r}), tile_size=128, batch_size=None)
    joined = joins.broadcast_spatial_join_tasks(
        tiles, index_ref=index, batch_size=None
    ).materialize()
    print("ROWS", joined.count())
    print(joined.stats())
    ray.shutdown()
    """
)


def _shards(out_dir, n_shards: int, per_shard: int, size: int) -> pa.Table:
    """``n_shards`` parquet files of ``per_shard`` synthetic images; the features."""
    os.makedirs(out_dir)
    n = n_shards * per_shard
    feats = []
    for s in range(n_shards):
        images, features = synth.gen_shard(np.arange(s * per_shard, (s + 1) * per_shard), n, 5, size)
        pq.write_table(images, os.path.join(out_dir, f"part-{s:03d}.parquet"))
        feats.append(features)
    return pa.concat_tables(feats)


def test_eight_shards_read_cut_join_fuse(tmp_path):
    """Eight shards of megabyte-scale images at one CPU: read, cut and
    join run as one operator of one task per shard, with no split read
    (Ray's own sizing split each file in two and ran two operators)."""
    images = str(tmp_path / "images")
    features = str(tmp_path / "features.parquet")
    pq.write_table(_shards(images, 8, 3, 512), features)
    assert sum(f.stat().st_size for f in (tmp_path / "images").iterdir()) > 8 * MIB
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", FUSED.format(repo=REPO, images=images, features=features)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    ops = [line for line in proc.stdout.splitlines() if line.startswith("Operator")]
    assert len(ops) == 1, proc.stdout
    assert "SplitBlocks" not in proc.stdout
    assert ops[0].startswith("Operator 1 ReadParquet->MapBatches(TileCutter)->MapBatches(_fn): 8 tasks")
    assert int(proc.stdout.split()[1]) > 0


def _small_files(out_dir, n: int, size: int) -> int:
    """``n`` one-row parquet files of ``size`` random bytes; their total bytes."""
    os.makedirs(out_dir)
    rng = np.random.default_rng(0)
    for i in range(n):
        pq.write_table(
            pa.table({"image_id": [f"img{i}"], "bytes": [rng.bytes(size)]}),
            os.path.join(out_dir, f"part-{i:03d}.parquet"),
        )
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


@pytest.fixture
def min_block_128k():
    ctx = DataContext.get_current()
    old = ctx.target_min_block_size
    ctx.target_min_block_size = 128 << 10
    yield ctx.target_min_block_size
    ctx.target_min_block_size = old


def test_small_files_are_grouped(ray_session, tmp_path, min_block_128k):
    """64 small files are read in at most one block per minimum block
    size of their bytes, and never in more blocks than files."""
    n_bytes = _small_files(tmp_path / "small", 64, 20_000)
    ds = read_images(str(tmp_path / "small")).materialize()
    assert ds.count() == 64
    assert ds.num_blocks() <= min(64, math.ceil(n_bytes / min_block_128k))
    assert "SplitBlocks" not in ds.stats()


def test_caller_override_num_blocks_wins(ray_session, tmp_path):
    _small_files(tmp_path / "small", 8, 1_000)
    ds = read_images(str(tmp_path / "small"), override_num_blocks=16).materialize()
    assert ds.count() == 8
    assert ds.num_blocks() == 16
    assert "SplitBlocks(2)" in ds.stats()


@pytest.mark.parametrize(
    "n_files, n_bytes, cpus, blocks",
    [
        (8, 19 * MIB, 1, 8),  # one block per shard
        (64, 19 * MIB, 1, 19),  # small files grouped into 1 MiB blocks
        (64, 19 * MIB - 1, 1, 18),
        (64, 100, 1, 1),
        (8, 19 * MIB, 8, 8),
        (1, 3 * MIB, 8, 8),  # more CPUs than files: split to the CPUs
        (8, 19 * MIB, 32, 32),
        (64, 100, 4, 4),
    ],
)
def test_read_blocks(n_files, n_bytes, cpus, blocks):
    assert DataContext.get_current().target_min_block_size == MIB
    assert read_blocks(n_files, n_bytes, cpus) == blocks


@pytest.mark.parametrize("cpus", [1, 2, 7, 8, 9, 64])
def test_read_blocks_bounds(cpus):
    """Never fewer blocks than CPUs; never more than files or whole
    minimum-size blocks of the bytes unless the CPUs ask for it."""
    for n_files in (1, 3, 8, 64, 1000):
        for n_bytes in (0, 1, MIB - 1, MIB, 19 * MIB, 10_000 * MIB):
            b = read_blocks(n_files, n_bytes, cpus)
            assert b >= cpus
            assert b == cpus or b <= min(n_files, n_bytes // MIB)
