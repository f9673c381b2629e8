"""The package runs from any working directory.

``runtime.ensure_shippable()`` pickles the package by value, so Ray
workers started from a directory that cannot import ``solaris_ray``
still run its UDFs, provided no UDF imports a package module lazily
(a relative import inside a function body is resolved on the worker).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {repo!r})

    import numpy as np
    import ray

    from solaris_ray.runtime import ensure_shippable
    from solaris_ray.sources import synth
    from solaris_ray.stages import masks, tiler
    from solaris_ray.stages.joins import (
        build_join_index, join_tile_batch_to_pack, spatial_join_tasks,
    )

    ray.init(address="local", num_cpus=2, object_store_memory=128 << 20,
             include_dashboard=False, logging_level="ERROR")
    ensure_shippable()
    images, features = synth.gen_shard(np.arange(4), 4, seed=42, size=256)
    meta = images.select(["image_id", "w", "h", "gt_a", "gt_b", "gt_c",
                          "gt_d", "gt_e", "gt_f"])
    specs = tiler.plan_tiles_ds(ray.data.from_arrow(meta), tile_size=128)
    joined = spatial_join_tasks(specs, features)
    print("ROWS", masks.masks_from_join(joined, tile_size=128).count())
    # in-process reference: one mask row per tile that joined a feature
    pack, buckets, res = build_join_index(features)
    ref = join_tile_batch_to_pack(tiler.plan_tiles(images, tile_size=128),
                                  pack, buckets, res, 0.0)
    print("TILES", len(set(ref["tile_id"].to_pylist())))
    ray.shutdown()
    """
)


def test_masks_from_join_in_foreign_cwd(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(repo=REPO)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    counts = dict(line.split() for line in proc.stdout.splitlines()
                  if line.startswith(("ROWS", "TILES")))
    assert counts["ROWS"] == counts["TILES"] != "0", proc.stdout[-2000:]
