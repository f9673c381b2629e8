"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; no
``ray.init()`` / ``ray.shutdown()`` happens here or in the library.

- ``entry()``     — flagship pipeline over /root/testdata/sf0.001.
- ``queries()``   — one callable per implemented operator/pipeline
                    (SURVEY.md §2 coverage; solaris_ray.pipelines.queries).
- ``oracle_sql()``— DuckDB-runnable ANSI SQL twins for the
                    SQL-expressible subset (same column names; integer
                    outputs or bit-identical float derivations).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from solaris_ray.runtime import ensure_importable, ensure_shippable, tune_data_context

ensure_importable()
ensure_shippable()
tune_data_context()


def entry() -> Any:
    """Flagship pipeline on sf0.001: tile-grid plan over part-derived
    imagery, clip spatial join against customer-derived footprints,
    per-cell rollup of join rows (the tiles+join-rows headline path)."""
    from ray.data.aggregate import Count, Sum

    import pyarrow as pa
    import pyarrow.compute as pc

    from solaris_ray.pipelines import queries as Q

    sf_dir = "/root/testdata/sf0.001"
    joined = Q.q_clip_join(sf_dir)
    agg = (
        joined.map_batches(
            lambda b: pa.table(
                {
                    "tile_id": b["tile_id"],
                    "truncated": pc.cast(b["truncated"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("tile_id")
        .aggregate(Count(), Sum("truncated"))
    )
    return agg


def queries() -> dict[str, Callable[[str], Any]]:
    """Registry, ordered so queries that have NEVER been in a driver
    correctness window come first (oracled ones leading) — the driver
    checks a 50-query prefix per round, and rotating never-checked
    families into it is how the whole registry earns machine-recorded
    correctness rows over rounds.  Relative order is otherwise stable.
    """
    import glob
    import json
    import os

    from solaris_ray.pipelines.queries import ORACLES, QUERIES

    checked: set[str] = set()
    here = os.path.dirname(os.path.abspath(__file__))
    for path in sorted(glob.glob(os.path.join(here, "CORRECTNESS_r*.json"))):
        try:
            with open(path) as f:
                checked |= set(json.load(f))
        except (OSError, ValueError):
            continue

    # this round's NEW gates lead the prefix (the round-4 advice: gates
    # added after the window cutoff carried no machine correctness
    # record), then the never-checked backlog, oracled first
    new_this_round = (
        "reproject_3857", "model_score", "coco_shards", "tiles_tiff_tiled",
        "augment_album", "augment_pair", "paragraph_dedup", "dsir",
        "focal_gradients", "watermark_late", "geodesic_area",
        "haversine_knn", "overviews", "split_multi", "eval_class", "chip_stitch_conf",
        "eval_concave",
    )

    def _prio(item):
        name = item[0]
        return (name not in new_this_round, name in checked,
                name not in ORACLES)

    return dict(sorted(QUERIES.items(), key=_prio))


def oracle_sql() -> dict[str, str]:
    from solaris_ray.pipelines.queries import ORACLES

    return dict(ORACLES)
