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

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {repo!r})

    import numpy as np
    import pyarrow as pa
    import ray

    from solaris_ray.raster import codec
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
    # TileCutter's AOI, warp and projection-unit branches, against the
    # same cutter called in-process.  The images are re-encoded as
    # GeoTIFF: a PNG (or qnt) decode loads libpng through a ctypes
    # module, which cannot be pickled by value, so PNG input still needs
    # a worker that imports the package.
    gtif = [codec.encode(codec.decode(b, f), "gtif")
            for b, f in zip(images["bytes"].to_pylist(), images["fmt"].to_pylist())]
    tifs = images.set_column(images.schema.get_field_index("bytes"), "bytes",
                             pa.array(gtif, pa.binary()))
    tifs = tifs.set_column(tifs.schema.get_field_index("fmt"), "fmt",
                           pa.array(["gtif"] * tifs.num_rows, pa.string()))
    row = tifs.to_pylist()[0]
    aoi = (row["gt_c"], row["gt_f"] - 64.0, row["gt_c"] + 32.0, row["gt_f"])
    for dest in (None, 4326):
        got = tiler.cut_tiles(ray.data.from_arrow(tifs), tile_size=128, aoi=aoi,
                              dest_epsg=dest).to_pandas()
        want = tiler.TileCutter(tile_size=128, aoi=aoi, dest_epsg=dest)(tifs).to_pandas()
        key = lambda df: sorted(zip(df["tile_id"], df["bytes"]))
        print("CUT", dest, len(got), int(len(got) > 0 and key(got) == key(want)))
    ray.shutdown()
    """
)


@pytest.fixture(scope="module")
def foreign_run(tmp_path_factory) -> str:
    """Run SCRIPT in a subprocess from a temporary cwd; its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(repo=REPO)],
        cwd=tmp_path_factory.mktemp("cwd"), env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


def test_masks_from_join_in_foreign_cwd(foreign_run):
    counts = dict(line.split() for line in foreign_run.splitlines()
                  if line.startswith(("ROWS", "TILES")))
    assert counts["ROWS"] == counts["TILES"] != "0", foreign_run[-2000:]


def test_tile_cutter_aoi_in_foreign_cwd(foreign_run):
    cuts = [line.split() for line in foreign_run.splitlines() if line.startswith("CUT")]
    assert [(c[1], c[3]) for c in cuts] == [("None", "1"), ("4326", "1")], foreign_run[-2000:]
