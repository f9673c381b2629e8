"""Hierarchical cell-set compaction (H3 ``compact_cells`` analogue).

The north-star design indexes every image footprint into compact
multi-resolution cell sets (H3 ``compact``/``uncompact``): a coverage
expressed at a fine resolution is rewritten so that any fully-covered
parent replaces its 4 children, recursively.  Compact sets make the
broadcast side of spatial joins and AOI filters O(boundary) instead of
O(area) — the standard trick for trillion-row cell indexes.

Distributed shape: one level per iteration, coarsest-last.  Each level
is a single ``groupby(parent-hash-bucket)`` co-shuffle of (cell,
parent) int64 rows — all children of a parent share a bucket, so a
vectorized numpy unique/count inside each bucket group decides
promotion.  Levels = base_res - min_res (a handful); every shuffle
carries 16-byte rows only, never geometry.  The per-key ``map_groups``
trap (~1 ms/group, measured on the graph joins) is avoided the same
way graph.py does it: 1024 hash buckets, sort + reduceat inside.

Reference parity: the reference has no compaction (no H3 wheel either
— ``solaris/utils/tile.py`` tiles flat grids); this implements the
H3 public semantics (compact of a set S at res R returns the unique
minimal multi-res set covering exactly S).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import cells

N_BUCKETS = 1024


def _level_kernel(parent_res: int):
    """Per-bucket promotion: groups of 4 siblings -> parent."""

    def _fn(batch: pa.Table) -> pa.Table:
        c = batch["cell"].to_numpy().astype(np.uint64)
        par = batch["parent"].to_numpy().astype(np.uint64)
        order = np.argsort(par, kind="stable")
        c, par = c[order], par[order]
        uniq, starts, counts = np.unique(par, return_index=True, return_counts=True)
        promoted = counts == 4
        # children of promoted parents are dropped; the parent row
        # replaces them at res-1.  Everything else is final output.
        keep_mask = np.repeat(~promoted, counts)
        out_cells = np.concatenate([c[keep_mask], uniq[promoted]])
        out_final = np.concatenate(
            [
                np.ones(int(keep_mask.sum()), dtype=np.int8),
                np.zeros(int(promoted.sum()), dtype=np.int8),
            ]
        )
        return pa.table(
            {
                "cell": pa.array(out_cells.astype(np.int64)),
                "final": pa.array(out_final),
            }
        )

    return _fn


def compact_cells(ds, base_res: int, min_res: int):
    """Compact a Dataset of distinct res-``base_res`` cell ids.

    ds: Dataset with an int64 ``cell`` column (uniform resolution
    ``base_res``; duplicates allowed — a distinct pass runs first).
    Returns a Dataset (cell, res) where ``res`` is the resolution each
    surviving cell landed at (``min_res`` <= res <= ``base_res``).
    """
    import ray

    # distinct via groupby on the id (engine-side; no driver pull)
    current = ds.groupby("cell").count().select_columns(["cell"])
    finals = []
    for r in range(base_res, min_res, -1):
        def _tag(batch: pa.Table, _r=r) -> pa.Table:
            c = batch["cell"].to_numpy().astype(np.uint64)
            par = cells.cell_parent(c, _r - 1)
            return pa.table(
                {
                    "cell": pa.array(c.astype(np.int64)),
                    "parent": pa.array(par.astype(np.int64)),
                    "bkt": pa.array((par % np.uint64(N_BUCKETS)).astype(np.int64)),
                }
            )

        leveled = (
            current.map_batches(_tag, batch_format="pyarrow")
            .groupby("bkt")
            .map_groups(_level_kernel(r - 1), batch_format="pyarrow")
            # two consumers (final-keep branch + next level): without
            # this materialize each deeper level re-executes every
            # upstream shuffle — O(L^2) all-to-alls instead of O(L);
            # rows are (cell, parent, flag) ids only, cheap to pin
            .materialize()
        )

        def _res_col(batch: pa.Table, _r=r) -> pa.Table:
            n = len(batch)
            return pa.table(
                {
                    "cell": batch["cell"],
                    "res": pa.array(np.full(n, _r, dtype=np.int64)),
                }
            )

        def _keep_final(batch: pa.Table) -> pa.Table:
            return batch.filter(pa.array(batch["final"].to_numpy() == 1))

        def _keep_promoted(batch: pa.Table) -> pa.Table:
            return batch.filter(pa.array(batch["final"].to_numpy() == 0))

        finals.append(
            leveled.map_batches(_keep_final, batch_format="pyarrow").map_batches(
                _res_col, batch_format="pyarrow"
            )
        )
        current = leveled.map_batches(_keep_promoted, batch_format="pyarrow").select_columns(
            ["cell"]
        )

    def _min_res_col(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell": batch["cell"],
                "res": pa.array(np.full(len(batch), min_res, dtype=np.int64)),
            }
        )

    out = current.map_batches(_min_res_col, batch_format="pyarrow")
    for f in finals:
        out = out.union(f)
    return out


def uncompact_cells(ds, target_res: int):
    """Inverse: expand a compact (cell, res) set back to uniform
    ``target_res`` children (H3 ``uncompact_cells``).  Pure per-batch
    arithmetic — each cell explodes to 4^(target_res - res) children,
    no shuffle."""

    def _expand(batch: pa.Table) -> pa.Table:
        c = batch["cell"].to_numpy().astype(np.uint64)
        res, ix, iy = cells.cell_decode(c)
        parts = []
        for r in np.unique(res):
            m = res == r
            shift = int(target_res - r)
            if shift < 0:
                raise ValueError("target_res must be >= every cell res")
            side = 1 << shift
            bx = (ix[m].astype(np.uint64) << np.uint64(shift))
            by = (iy[m].astype(np.uint64) << np.uint64(shift))
            dx = np.arange(side, dtype=np.uint64)
            gx = (bx[:, None] + dx[None, :]).repeat(side, axis=1).reshape(-1)
            gy = np.tile(
                (by[:, None] + dx[None, :]), (1, side)
            ).reshape(-1)
            kid = (
                (np.uint64(target_res) << np.uint64(58))
                | (gx << np.uint64(29))
                | gy
            )
            parts.append(kid)
        out = (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=np.uint64)
        )
        return pa.table({"cell": pa.array(out.astype(np.int64))})

    return ds.map_batches(_expand, batch_format="pyarrow")


def collect_compact_set(compact_ds) -> pa.Table:
    """Materialize a compacted (cell, res) set for broadcast.

    Safe by construction: compaction exists precisely to make AOI /
    coverage sets small (O(boundary) cells); the collect is the
    broadcast artifact, not a data-scale pull."""
    import pyarrow as pa  # noqa: F811 (local alias for workers)

    parts = list(compact_ds.iter_batches(batch_format="pyarrow"))
    return (
        pa.concat_tables(parts)
        if parts
        else pa.table({"cell": pa.array([], pa.int64()), "res": pa.array([], pa.int64())})
    )


class AoiCellFilter:
    """Map stage: keep points whose cell (at ANY of the compact
    set's resolutions) is in the broadcast AOI set.

    Membership against a compact set = compute the point's cell id at
    each resolution present in the set and test it against that
    resolution's sorted id array (np.isin on uint64) — at most a
    handful of levels, all vectorized.  Equivalent to membership in
    the uncompacted fine-res cover (compaction preserves coverage
    exactly), but the broadcast payload is the compact set.
    """

    def __init__(self, aoi_ref, x_col: str = "x", y_col: str = "y"):
        import ray

        tbl = ray.get(aoi_ref) if not isinstance(aoi_ref, pa.Table) else aoi_ref
        cell = tbl["cell"].to_numpy().astype(np.uint64)
        res = tbl["res"].to_numpy().astype(np.int64)
        self.levels = [
            (int(r), np.sort(cell[res == r])) for r in np.unique(res)
        ]
        self.x_col, self.y_col = x_col, y_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        xs = batch[self.x_col].to_numpy()
        ys = batch[self.y_col].to_numpy()
        keep = np.zeros(len(xs), dtype=bool)
        for r, ids in self.levels:
            if not len(ids):
                continue
            c = cells.cell_of_point(xs, ys, r)
            idx = np.searchsorted(ids, c)
            idx[idx == len(ids)] = 0
            keep |= ids[idx] == c
        return batch.filter(pa.array(keep))


def aoi_cell_filter(points_ds, compact_ds, x_col: str = "x", y_col: str = "y"):
    """Filter a point Dataset to those inside a compact AOI cell set."""
    import ray

    from ..runtime import stateful_map

    aoi_ref = ray.put(collect_compact_set(compact_ds))
    return stateful_map(
        points_ds, AoiCellFilter,
        dict(aoi_ref=aoi_ref, x_col=x_col, y_col=y_col),
        batch_size=8192,
    )
