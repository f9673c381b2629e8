"""Spatial joins — Solaris VectorTiler clip join, Ray-Data-first.

Reference semantics (/root/reference/solaris/tile/vector_tile.py):
``clip_gdf`` (:227-324) takes one tile's bounds, finds candidate
features via an R-tree bbox query (``search_gdf_polygon`` :198-224),
clips each to the tile box, and annotates:

- ``origarea``   — pre-clip polygon area (:303-306)
- ``origlen``    — pre-clip line length (:307-310)
- ``partialDec`` — clipped/original area (or length) ratio (:303-310)
- ``truncated``  — 1 when the clip lost any part (:313-316)
- rows with ``partialDec < min_partial_perc`` are dropped (:296-300)

``spatial_join`` picks one of two physical plans (SURVEY.md §2.4) by
the feature layer's size; both share the clip kernel ``clip_pairs``:

1. **Broadcast join** (`broadcast_spatial_join_tasks`): when the layer
   fits ``BROADCAST_LIMIT_BYTES``, build one cell-bucketed index,
   ``ray.put`` it once, and map tasks over tile specs
   (``runtime.stateful_map``) — each worker process fetches the index
   once.  No shuffle; this mirrors the reference's single global
   ``gdf.sindex`` (solaris/eval/base.py:46) but distributed.
2. **Cell-partitioned join** (`cell_partitioned_join`): large layers.
   Replicate each feature to every cell its bbox covers, tag tiles with
   their cell, co-shuffle with ``groupby(cell)`` and join inside each
   group.  Hot cells can be pre-split one resolution finer (see
   ``cells.cell_children``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom import cells
from ..geom.poly import (
    clip_line_to_box,
    clip_polys_to_boxes_batch,
    clip_ring_to_box,
    padded_ring_areas,
    ring_areas,
    ring_lengths,
)

JOIN_SCHEMA = pa.schema(
    [
        ("tile_id", pa.string()),
        ("image_id", pa.string()),
        ("cell", pa.int64()),
        ("feature_id", pa.int64()),
        ("class", pa.string()),
        ("xs", pa.list_(pa.float64())),
        ("ys", pa.list_(pa.float64())),
        ("origarea", pa.float64()),
        ("origlen", pa.float64()),
        ("partialDec", pa.float64()),
        ("truncated", pa.int8()),
        ("x0", pa.float64()),
        ("y0", pa.float64()),
        ("x1", pa.float64()),
        ("y1", pa.float64()),
    ]
)


class FeaturePack:
    """Columnar feature layer: packed coords + bboxes + ids.

    Built zero-copy-ish from an Arrow table with ``xs``/``ys`` list
    columns (flattened values + offsets — the Arrow list layout IS the
    packed-ring layout).
    """

    __slots__ = ("coords", "offsets", "bbox", "feature_id", "klass", "image_id", "is_poly", "origarea", "origlen")

    def __init__(self, coords, offsets, bbox, feature_id, klass, image_id, is_poly):
        self.coords = coords
        self.offsets = offsets
        self.bbox = bbox
        self.feature_id = feature_id
        self.klass = klass
        self.image_id = image_id
        self.is_poly = is_poly
        self.origarea = np.where(is_poly, ring_areas(coords, offsets), 0.0)
        self.origlen = np.where(
            is_poly,
            ring_lengths(coords, offsets, closed=True),
            ring_lengths(coords, offsets, closed=False),
        )

    def __len__(self):
        return len(self.feature_id)

    @classmethod
    def from_arrow(cls, tbl: pa.Table) -> "FeaturePack":
        xs = tbl["xs"].combine_chunks()
        ys = tbl["ys"].combine_chunks()
        if isinstance(xs, pa.ChunkedArray):
            xs = xs.chunk(0) if xs.num_chunks == 1 else pa.concat_arrays(xs.chunks)
            ys = ys.chunk(0) if ys.num_chunks == 1 else pa.concat_arrays(ys.chunks)
        offsets = xs.offsets.to_numpy().astype(np.int64)
        coords = np.stack(
            [xs.values.to_numpy(), ys.values.to_numpy()], axis=1
        ).astype(np.float64)
        # strings stay Arrow (buffer-pickled -> near-zero-copy through
        # the object store; 10^5-element numpy OBJECT arrays pickle one
        # PyObject at a time and dominated broadcast-index ship time)
        klass_arr = tbl["class"].combine_chunks()
        if isinstance(klass_arr, pa.ChunkedArray):
            klass_arr = pa.concat_arrays(klass_arr.chunks)
        image_arr = tbl["image_id"].combine_chunks()
        if isinstance(image_arr, pa.ChunkedArray):
            image_arr = pa.concat_arrays(image_arr.chunks)
        import pyarrow.compute as _pc

        is_poly = _pc.not_equal(klass_arr, "road").to_numpy(zero_copy_only=False)
        if "minx" in tbl.column_names:
            bbox = np.stack(
                [tbl[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")], axis=1
            )
        else:
            starts = offsets[:-1]
            x = coords[:, 0]
            y = coords[:, 1]
            bbox = np.stack(
                [
                    np.minimum.reduceat(x, starts),
                    np.minimum.reduceat(y, starts),
                    np.maximum.reduceat(x, starts),
                    np.maximum.reduceat(y, starts),
                ],
                axis=1,
            )
        return cls(
            coords,
            offsets,
            bbox,
            tbl["feature_id"].to_numpy(),
            klass_arr,
            image_arr,
            is_poly,
        )

    def ring(self, i: int) -> np.ndarray:
        return self.coords[self.offsets[i] : self.offsets[i + 1]]

    def klass_at(self, i: int) -> str:
        return self.klass[int(i)].as_py()

    def image_id_at(self, i: int) -> str:
        return self.image_id[int(i)].as_py()


def clip_features_to_tile(
    pack: FeaturePack,
    cand: np.ndarray,
    tile_id: str,
    image_id: str,
    cell: int,
    x0: float,
    y0: float,
    x1: float,
    y1: float,
    min_partial_perc: float,
    out: dict,
) -> None:
    """Exact clip of candidate features against one tile box → rows.

    The clip_gdf kernel (vector_tile.py:227-324) for one tile; appends
    to ``out`` column lists.
    """
    for fi in cand:
        ring = pack.ring(fi)
        if pack.is_poly[fi]:
            clipped = clip_ring_to_box(ring, x0, y0, x1, y1)
            if len(clipped) < 3:
                continue
            offs = np.array([0, len(clipped)], dtype=np.int64)
            newarea = float(ring_areas(clipped, offs)[0])
            if newarea <= 0:
                continue
            partial = newarea / pack.origarea[fi] if pack.origarea[fi] > 0 else 0.0
            partial = min(partial, 1.0)
            if partial < min_partial_perc:
                continue  # min_partial_perc filter (vector_tile.py:296-300)
            xs_out = clipped[:, 0]
            ys_out = clipped[:, 1]
        else:
            pieces = clip_line_to_box(ring, x0, y0, x1, y1)
            if not pieces:
                continue
            newlen = sum(
                float(ring_lengths(p, np.array([0, len(p)]), closed=False)[0])
                for p in pieces
            )
            if newlen <= 0:
                continue
            partial = newlen / pack.origlen[fi] if pack.origlen[fi] > 0 else 0.0
            partial = min(partial, 1.0)
            if partial < min_partial_perc:
                continue
            merged = np.concatenate(pieces)
            xs_out = merged[:, 0]
            ys_out = merged[:, 1]
        out["tile_id"].append(tile_id)
        out["image_id"].append(image_id)
        out["cell"].append(cell)
        out["feature_id"].append(int(pack.feature_id[fi]))
        out["class"].append(pack.klass_at(fi))
        out["xs"].append(xs_out.tolist())
        out["ys"].append(ys_out.tolist())
        out["origarea"].append(float(pack.origarea[fi]))
        out["origlen"].append(float(pack.origlen[fi]))
        out["partialDec"].append(float(partial))
        out["truncated"].append(int(partial < 1.0 - 1e-12))
        out["x0"].append(float(x0))
        out["y0"].append(float(y0))
        out["x1"].append(float(x1))
        out["y1"].append(float(y1))


def _empty_out() -> dict:
    return {name: [] for name in JOIN_SCHEMA.names}


def _out_to_table(out: dict) -> pa.Table:
    return pa.table(
        {name: pa.array(out[name], JOIN_SCHEMA.field(name).type) for name in JOIN_SCHEMA.names}
    )


def join_tile_batch_to_pack(
    batch: pa.Table,
    pack: FeaturePack,
    buckets: dict[int, np.ndarray],
    cell_res: int,
    min_partial_perc: float,
) -> pa.Table:
    """Join a batch of tile-spec rows against a bucketed FeaturePack.

    Two vectorized phases: (1) candidate harvesting per tile (bucket
    lookups + bbox test), producing flat (tile, feature) pair arrays;
    (2) one batched Sutherland–Hodgman clip of ALL polygon pairs at
    once (geom.poly.clip_polys_to_boxes_batch) — the per-pair Python of
    the naive kernel was the join's scaling bottleneck.  Line features
    (the minority class) keep the scalar Liang–Barsky path.
    """
    tid_arr = batch["tile_id"].combine_chunks() if isinstance(batch["tile_id"], pa.ChunkedArray) else batch["tile_id"]
    iid_arr = batch["image_id"].combine_chunks() if isinstance(batch["image_id"], pa.ChunkedArray) else batch["image_id"]
    cell_col = batch["cell"].to_numpy() if "cell" in batch.column_names else None
    x0 = batch["x0"].to_numpy()
    y0 = batch["y0"].to_numpy()
    x1 = batch["x1"].to_numpy()
    y1 = batch["y1"].to_numpy()

    # --- phase 1: harvest candidate (tile, feature) pairs ----------------
    # fully vectorized: all (tile, covered-cell) pairs at once, one
    # batched searchsorted into the CSR bucket index, ragged candidate
    # expansion, then a combined-key unique (a feature reachable via
    # several cells of one tile must pair once) and the bbox test
    trows, tcells_all = cells.cover_bboxes(x0, y0, x1, y1, cell_res)
    key_cells = tcells_all.astype(np.int64)
    pos = np.searchsorted(buckets.cells, key_cells)
    pos_c = np.minimum(pos, max(len(buckets.cells) - 1, 0))
    okc = (pos < len(buckets.cells)) & (
        buckets.cells[pos_c] == key_cells if len(buckets.cells) else False
    )
    if not okc.any():
        return _out_to_table(_empty_out())
    bstart = buckets.starts[pos_c[okc]]
    bend = buckets.ends[pos_c[okc]]
    counts = (bend - bstart).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return _out_to_table(_empty_out())
    offs = np.cumsum(counts) - counts
    flat = np.arange(total, dtype=np.int64) - np.repeat(offs, counts) + np.repeat(bstart, counts)
    cand_rows = buckets.rows[flat]
    tile_rep = np.repeat(trows[okc], counts)
    combined = np.unique(tile_rep * np.int64(len(pack)) + cand_rows)
    pt = (combined // len(pack)).astype(np.int64)
    pf = (combined % len(pack)).astype(np.int64)
    b = pack.bbox
    hit = (
        (b[pf, 0] < x1[pt]) & (b[pf, 2] > x0[pt]) & (b[pf, 1] < y1[pt]) & (b[pf, 3] > y0[pt])
    )
    pt, pf = pt[hit], pf[hit]
    if len(pt) == 0:
        return _out_to_table(_empty_out())
    if cell_col is not None:
        pcell = cell_col[pt]
    else:
        pcell = cells.cell_of_point((x0[pt] + x1[pt]) / 2, (y0[pt] + y1[pt]) / 2, cell_res).astype(np.int64)

    return clip_pairs(
        pack, pt, pf, tid_arr, iid_arr, x0, y0, x1, y1, pcell, min_partial_perc
    )


def clip_pairs(
    pack: FeaturePack,
    pt: np.ndarray,
    pf: np.ndarray,
    tid_arr,
    iid_arr,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    pcell: np.ndarray,
    min_partial_perc: float,
) -> pa.Table:
    """Shared pair-clip kernel: (tile, feature) pair arrays -> join rows.

    Used by both physical plans (broadcast and cell-partitioned), so
    their outputs are bit-identical.  Polygons go through the batched
    Sutherland-Hodgman; lines through the scalar Liang-Barsky path.
    """
    tid = tid_arr.to_pylist()
    iid = iid_arr.to_pylist()
    out = _empty_out()
    counts = (pack.offsets[pf + 1] - pack.offsets[pf]).astype(np.int64)
    poly_sel = pack.is_poly[pf]


    # --- phase 2a: batched polygon clip ----------------------------------
    psel = np.nonzero(poly_sel)[0]
    if len(psel):
        ppt, ppf = pt[psel], pf[psel]
        nv = counts[psel]
        M = int(nv.max())
        K = len(psel)
        P = np.zeros((K, M, 2), dtype=np.float64)
        gather = pack.offsets[ppf][:, None] + np.arange(M)[None, :]
        valid = np.arange(M)[None, :] < nv[:, None]
        gather = np.where(valid, gather, pack.offsets[ppf][:, None])
        P = pack.coords[gather]
        P[~valid] = 0.0
        C, cnv = clip_polys_to_boxes_batch(P, nv, x0[ppt], y0[ppt], x1[ppt], y1[ppt])
        areas = padded_ring_areas(C, cnv)
        orig = pack.origarea[ppf]
        partial = np.where(orig > 0, np.minimum(areas / np.where(orig > 0, orig, 1.0), 1.0), 0.0)
        keep = np.nonzero((cnv >= 3) & (areas > 0) & (partial >= min_partial_perc))[0]
        if len(keep):
            kt, kf = ppt[keep], ppf[keep]
            knv = cnv[keep]
            # ragged xs/ys built as one flat gather + Arrow list offsets
            Mc = C.shape[1]
            vmask = np.arange(Mc)[None, :] < knv[:, None]
            flat_x = C[keep][:, :, 0][vmask]
            flat_y = C[keep][:, :, 1][vmask]
            offs = pa.array(np.concatenate(([0], np.cumsum(knv))), pa.int32())
            kpartial = partial[keep]
            kt_idx = pa.array(kt, pa.int64())
            poly_tbl = pa.table(
                {
                    "tile_id": tid_arr.take(kt_idx),
                    "image_id": iid_arr.take(kt_idx),
                    "cell": pa.array(pcell[psel[keep]].astype(np.int64), pa.int64()),
                    "feature_id": pa.array(pack.feature_id[kf].astype(np.int64), pa.int64()),
                    "class": pack.klass.take(pa.array(kf)),
                    "xs": pa.ListArray.from_arrays(offs, pa.array(flat_x, pa.float64())),
                    "ys": pa.ListArray.from_arrays(offs, pa.array(flat_y, pa.float64())),
                    "origarea": pa.array(pack.origarea[kf], pa.float64()),
                    "origlen": pa.array(pack.origlen[kf], pa.float64()),
                    "partialDec": pa.array(kpartial, pa.float64()),
                    "truncated": pa.array((kpartial < 1.0 - 1e-12).astype(np.int8), pa.int8()),
                    "x0": pa.array(x0[kt], pa.float64()),
                    "y0": pa.array(y0[kt], pa.float64()),
                    "x1": pa.array(x1[kt], pa.float64()),
                    "y1": pa.array(y1[kt], pa.float64()),
                }
            )
        else:
            poly_tbl = _out_to_table(_empty_out())
    else:
        poly_tbl = _out_to_table(_empty_out())

    # --- phase 2b: lines (scalar path, minority class) -------------------
    lsel = np.nonzero(~poly_sel)[0]
    for idx in lsel.tolist():
        ti, fi = int(pt[idx]), int(pf[idx])
        clip_features_to_tile(
            pack, np.asarray([fi]), tid[ti], iid[ti], int(pcell[idx]),
            x0[ti], y0[ti], x1[ti], y1[ti], min_partial_perc, out,
        )
    line_tbl = _out_to_table(out)
    if line_tbl.num_rows == 0:
        return poly_tbl
    if poly_tbl.num_rows == 0:
        return line_tbl
    return pa.concat_tables([poly_tbl, line_tbl])


class CellBuckets:
    """Flat-array cell index: sorted cell ids + CSR-style row slices.

    Replaces the dict-of-arrays bucket map: four numpy arrays pickle
    via zero-copy buffers, so shipping a continent-scale index through
    the object store costs ~memcpy instead of one PyObject per bucket
    (which was the serial floor of the join's actor startup).
    Lookup is ``searchsorted`` (log n) with the same ``in``/``[]`` API.
    """

    __slots__ = ("cells", "starts", "ends", "rows")

    def __init__(self, cells_sorted: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, rows: np.ndarray):
        # int64 keys: searchsorted(uint64, python_int) silently routes
        # through float64 and corrupts bit-61 cell ids
        self.cells = cells_sorted.astype(np.int64)
        self.starts = starts
        self.ends = ends
        self.rows = rows

    def _find(self, cell) -> int:
        i = int(np.searchsorted(self.cells, np.int64(cell)))
        return i if i < len(self.cells) and self.cells[i] == np.int64(cell) else -1

    def __contains__(self, cell) -> bool:
        return self._find(cell) >= 0

    def __getitem__(self, cell) -> np.ndarray:
        i = self._find(cell)
        if i < 0:
            raise KeyError(cell)
        return self.rows[self.starts[i] : self.ends[i]]

    def get(self, cell, default=None):
        i = self._find(cell)
        return self.rows[self.starts[i] : self.ends[i]] if i >= 0 else default


def build_buckets(pack: FeaturePack, cell_res: int) -> CellBuckets:
    """cell id -> feature indices whose bbox covers the cell (CSR)."""
    rows, cc = cells.cover_bboxes(
        pack.bbox[:, 0], pack.bbox[:, 1], pack.bbox[:, 2], pack.bbox[:, 3], cell_res
    )
    order = np.argsort(cc, kind="stable")
    cc = cc[order]
    rows = rows[order]
    uniq, starts = np.unique(cc, return_index=True)
    ends = np.append(starts[1:], len(cc))
    return CellBuckets(uniq, starts.astype(np.int64), ends.astype(np.int64), rows)


class BroadcastJoiner:
    """Per-worker body of the broadcast join: tile specs x one index.

    ``index_ref`` is a ``ray.put`` of the ``build_join_index``
    ``(pack, buckets, cell_res)`` tuple; ``runtime.stateful_map``
    builds one instance per worker process, so the index is fetched
    once per worker (zero-copy numpy/Arrow views out of plasma) — the
    task-mode analogue of the reference's per-process
    ``Pool(initializer=...)`` broadcast (solaris/vector/graph.py:341-349).
    ``spec_columns`` projects the incoming tile batch (dropping e.g. a
    pixel column) and ``out_columns`` the join rows, so consumers that
    keep neither pay no plasma bandwidth for them.
    """

    def __init__(self, index_ref, min_partial_perc: float = 0.0,
                 spec_columns: list[str] | None = None,
                 out_columns: list[str] | None = None):
        import ray

        self.pack, self.buckets, self.cell_res = ray.get(index_ref)
        self.min_partial_perc = min_partial_perc
        self.spec_columns = spec_columns
        self.out_columns = out_columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.spec_columns:
            batch = batch.select(self.spec_columns)
        out = join_tile_batch_to_pack(
            batch, self.pack, self.buckets, self.cell_res, self.min_partial_perc
        )
        return out.select(self.out_columns) if self.out_columns else out


def broadcast_spatial_join_tasks(
    tile_specs,
    index_ref,
    min_partial_perc: float = 0.0,
    out_columns: list[str] | None = None,
    spec_columns: list[str] | None = None,
    batch_size: int | None = 256,
):
    """tiles Dataset x prebuilt broadcast index -> tile_features Dataset.

    Stateless map tasks over warm workers (``runtime.stateful_map``):
    no actor-pool spin-up, whose fixed per-execution cost kept the
    scaling bench's join leg at ~11 s at both 4 and 16 cpus.
    """
    from ..runtime import stateful_map

    # the per-worker instance cache is keyed by the ObjectRef hex — a
    # raw table/tuple has no stable identity, so require a ray.put ref
    if not hasattr(index_ref, "hex"):
        raise TypeError(
            "broadcast_spatial_join_tasks requires a ray.ObjectRef "
            "(ray.put the prebuilt index); raw tables/tuples have no "
            "stable cache identity"
        )
    return stateful_map(
        tile_specs, BroadcastJoiner,
        {
            "index_ref": index_ref,
            "min_partial_perc": min_partial_perc,
            "spec_columns": spec_columns,
            "out_columns": out_columns,
        },
        batch_size=batch_size,
    )


def build_join_index(features: pa.Table, cell_res: int | None = None):
    """(pack, buckets, cell_res) for the broadcast join.

    Run this as a ``@ray.remote`` task overlapping upstream stages (the
    flagship builds it under the tiler) — index construction then never
    sits on the driver's critical path."""
    if cell_res is None:
        import pyarrow.compute as _pc

        # finer than the shuffle default: broadcast lookups pay per
        # CANDIDATE, so small buckets beat small replication — clustered
        # layers at target 64 left thousands of features per hot cell
        # (measured 2.3x join slowdown vs target 8)
        cell_res = cells.choose_res(
            float(_pc.min(features["minx"]).as_py()),
            float(_pc.min(features["miny"]).as_py()),
            float(_pc.max(features["maxx"]).as_py()),
            float(_pc.max(features["maxy"]).as_py()),
            features.num_rows,
            target_per_cell=8,
        )
    pack = FeaturePack.from_arrow(features)
    return pack, build_buckets(pack, cell_res), cell_res


def spatial_join_tasks(
    tile_specs,
    features: pa.Table,
    cell_res: int | None = None,
    min_partial_perc: float = 0.0,
    out_columns: list[str] | None = None,
    batch_size: int | None = 256,
):
    """Build the broadcast index once on the driver, ``ray.put`` it and
    run ``broadcast_spatial_join_tasks``."""
    import ray

    index_ref = ray.put(build_join_index(features, cell_res))
    return broadcast_spatial_join_tasks(
        tile_specs, index_ref=index_ref,
        min_partial_perc=min_partial_perc,
        out_columns=out_columns, batch_size=batch_size,
    )


# default object-store budget for a broadcast feature layer; above
# this the layer must co-shuffle instead of shipping to every worker
BROADCAST_LIMIT_BYTES = 1 << 30


def spatial_join(
    tile_specs,
    features,
    cell_res: int | None = None,
    min_partial_perc: float = 0.0,
    broadcast_limit_bytes: int | None = None,
    **kwargs,
):
    """Auto-selecting spatial join: broadcast when the feature layer
    fits the object-store budget, cell-partitioned co-shuffle otherwise.

    Both physical paths share the same clip kernel, so outputs are
    bit-identical (parity-tested) — the choice is purely a plan-time
    size decision, mirroring the broadcast-small-side rule of
    SURVEY.md §4.  ``features`` may be an in-memory ``pyarrow.Table``
    or a ``ray.data.Dataset``.  ``kwargs`` (``out_columns``,
    ``batch_size``) go to the broadcast plan, ``spatial_join_tasks``.
    """
    import ray

    limit = broadcast_limit_bytes if broadcast_limit_bytes is not None else BROADCAST_LIMIT_BYTES
    if isinstance(features, pa.Table):
        if features.nbytes <= limit:
            return spatial_join_tasks(
                tile_specs, features, cell_res=cell_res,
                min_partial_perc=min_partial_perc, **kwargs,
            )
        features = ray.data.from_arrow(features)
        return cell_partitioned_join(
            tile_specs, features, cell_res=cell_res or 13,
            min_partial_perc=min_partial_perc,
        )
    size = features.size_bytes()
    if size is not None and size <= limit:
        tbl = pa.concat_tables(
            [b for b in ray.get(features.to_arrow_refs()) if b.num_rows]
        )
        return spatial_join_tasks(
            tile_specs, tbl, cell_res=cell_res,
            min_partial_perc=min_partial_perc, **kwargs,
        )
    return cell_partitioned_join(
        tile_specs, features, cell_res=cell_res or 13,
        min_partial_perc=min_partial_perc,
    )


# --- cell-partitioned (both sides large) ---------------------------------

def _tag_features_with_cells(batch: pa.Table, cell_res: int) -> pa.Table:
    """Replicate features to every covered cell (the shuffle key)."""
    rows, cc = cells.cover_bboxes(
        batch["minx"].to_numpy(),
        batch["miny"].to_numpy(),
        batch["maxx"].to_numpy(),
        batch["maxy"].to_numpy(),
        cell_res,
    )
    rep = batch.take(pa.array(rows))
    rep = rep.append_column("cell", pa.array(cc.astype(np.int64), pa.int64()))
    return rep


def _retag_hot(rows_cells: tuple[np.ndarray, np.ndarray], minx, miny, maxx, maxy,
               hot, cell_res: int) -> tuple[np.ndarray, np.ndarray]:
    """Replace assignments to hot cells by finer child assignments.

    ``hot`` maps cell id -> split depth (a frozenset is accepted as
    depth-1 everywhere for backward compatibility).  Splits can go
    MULTIPLE levels: a cell holding 100x the target density descends
    log4(ratio) levels in one step, so a dense AOI can't leave a
    monster group behind (one level only quarters it).  Exactly-once
    emission survives mixed resolutions because the per-group owner
    test derives the resolution from the group's own cell id: the pair
    is emitted only by the group whose cell (at ITS resolution)
    contains the intersection's min corner.
    """
    rows, cc = rows_cells
    if not hot:
        return rows, cc
    if not isinstance(hot, dict):
        hot = {c: 1 for c in hot}
    hc = np.fromiter(hot.keys(), dtype=np.uint64, count=len(hot))
    hl = np.fromiter(hot.values(), dtype=np.int64, count=len(hot))
    order = np.argsort(hc)
    hc, hl = hc[order], hl[order]
    pos = np.searchsorted(hc, cc)
    posc = np.minimum(pos, len(hc) - 1)
    lv = np.where(hc[posc] == cc, hl[posc], 0)
    if not (lv > 0).any():
        return rows, cc
    out_r, out_c = [rows[lv == 0]], [cc[lv == 0]]
    for L in np.unique(lv[lv > 0]):
        m = lv == L
        hrows = rows[m]
        r2, c2 = cells.cover_bboxes(
            minx[hrows], miny[hrows], maxx[hrows], maxy[hrows], cell_res + int(L)
        )
        # keep only children whose ancestor is the hot cell being split
        parent = cells.cell_parent(c2, cell_res)
        orig = cc[m][r2]
        keep = parent == orig
        out_r.append(hrows[r2[keep]])
        out_c.append(c2[keep])
    return np.concatenate(out_r), np.concatenate(out_c)


def cell_partitioned_join(
    tile_specs,
    features,
    cell_res: int = 13,
    min_partial_perc: float = 0.0,
    hot_cell_factor: float = 8.0,
    hist_sample: float = 0.25,
    nbuckets: int = 64,
    max_cell_feats: int = 512,
    max_cell_pairs: int = 1 << 15,
):
    """Both-sides-large spatial join via groupby(cell) co-shuffle.

    Features are replicated to covered cells (duplication factor =
    replicated/count); tiles are replicated via bbox cover so
    boundary-straddling tiles stay exact.  SKEW: a SAMPLED pre-pass
    (deterministic hash of feature_id, ``hist_sample`` keep fraction)
    counts features per cell; cells holding more than
    ``hot_cell_factor`` x the median are split one resolution finer
    (urban-density salting, SURVEY.md §4) before the shuffle — group
    sizes stay bounded without changing RESULTS (owner-cell dedup is
    resolution-aware; the hot set only shapes the physical plan, so
    sampling error costs at most balance, never correctness).

    DISPATCH: groups shuffle by ``hash(cell) % nbuckets``, not by raw
    cell — one Python call handles a whole bucket of cells, with pair
    candidates generated vectorized across every cell segment at once
    (the same block-granularity lesson as the mask family: per-cell
    ``map_groups`` paid one dispatch + kernel setup per cell, which
    dominated wall time once cells outnumbered cores by 100x).
    """
    # pass 0: sampled feature-count histogram -> hot-cell set (tiny,
    # driver-side); deterministic hash sampling so plans are stable
    from ray.data.aggregate import Count

    def _sampled_cells(b: pa.Table) -> pa.Table:
        if hist_sample < 1.0:
            fid = b["feature_id"].to_numpy().astype(np.uint64)
            keep = (fid * np.uint64(2654435761)) % np.uint64(1000) < np.uint64(
                int(hist_sample * 1000)
            )
            b = b.filter(pa.array(keep))
        return _tag_features_with_cells(b, cell_res).select(["cell"])

    hist = (
        features.map_batches(_sampled_cells, batch_format="pyarrow", batch_size=8192)
        .groupby("cell")
        .aggregate(Count())
        .to_pandas()
    )

    # sampled TILE-side histogram: the group's work is t_cnt x f_cnt, so
    # a cell dense in tiles is just as hot as one dense in features (a
    # 24k-tile x 6k-feature cell = 151M candidate pairs observed at
    # sf0.1 before this pass existed).  Sampling key hashes the tile's
    # origin bits so tiles sharing a cell sample independently.
    def _sampled_tile_cells(b: pa.Table) -> pa.Table:
        t = b.select(["cell"])
        if hist_sample < 1.0:
            key = b["x0"].to_numpy().view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            key ^= b["y0"].to_numpy().view(np.uint64) * np.uint64(2654435761)
            keep = key % np.uint64(1000) < np.uint64(int(hist_sample * 1000))
            t = t.filter(pa.array(keep))
        return t

    t_hist = (
        tile_specs.map_batches(_sampled_tile_cells, batch_format="pyarrow", batch_size=8192)
        .groupby("cell")
        .aggregate(Count())
        .to_pandas()
    )
    # hot triggers: RELATIVE (feature skew vs the median cell), ABSOLUTE
    # (more than max_cell_feats features — a uniformly dense AOI makes
    # every cell a monster and the median test alone never fires), or
    # PAIR MASS (est tiles x est feats > max_cell_pairs — either side
    # alone can look modest while the product is a straggler).  Depth:
    # one split level quarters each side, so feature density heals at
    # 4^d and pair mass at 16^d; take whichever ask is deeper.
    hot: dict = {}
    if len(hist):
        scale = 1.0 / max(1e-9, min(1.0, hist_sample))
        est = hist["count()"].to_numpy() * scale
        t_by_cell = {}
        if len(t_hist):
            t_by_cell = dict(
                zip(
                    t_hist["cell"].to_numpy().astype(np.uint64),
                    t_hist["count()"].to_numpy() * scale,
                )
            )
        cells_f = hist["cell"].to_numpy().astype(np.uint64)
        est_t = np.array([t_by_cell.get(c, 0.0) for c in cells_f])
        est_pairs = est * est_t
        med = max(1.0, float(np.median(est)))
        is_hot = (
            (est > hot_cell_factor * med)
            | (est > max_cell_feats)
            | (est_pairs > max_cell_pairs)
        )
        for c, e, p in zip(cells_f[is_hot], est[is_hot], est_pairs[is_hot]):
            d_feat = np.ceil(np.log(max(e, 1.0) / max_cell_feats) / np.log(4.0))
            d_pair = np.ceil(np.log(max(p, 1.0) / max_cell_pairs) / np.log(16.0))
            hot[np.uint64(c)] = min(6, max(1, int(max(d_feat, d_pair))))

    def _tag_feats(batch: pa.Table) -> pa.Table:
        minx = batch["minx"].to_numpy()
        miny = batch["miny"].to_numpy()
        maxx = batch["maxx"].to_numpy()
        maxy = batch["maxy"].to_numpy()
        rows, cc = _retag_hot(
            cells.cover_bboxes(minx, miny, maxx, maxy, cell_res),
            minx, miny, maxx, maxy, hot, cell_res,
        )
        rep = batch.take(pa.array(rows))
        return rep.append_column("cell", pa.array(cc.astype(np.int64), pa.int64()))

    feats_tagged = features.map_batches(_tag_feats, batch_format="pyarrow", batch_size=8192)

    def _tag_tiles(batch: pa.Table) -> pa.Table:
        x0 = batch["x0"].to_numpy()
        y0 = batch["y0"].to_numpy()
        x1 = batch["x1"].to_numpy()
        y1 = batch["y1"].to_numpy()
        rows, cc = _retag_hot(
            cells.cover_bboxes(x0, y0, x1, y1, cell_res),
            x0, y0, x1, y1, hot, cell_res,
        )
        rep = batch.take(pa.array(rows))
        return rep.set_column(
            rep.schema.get_field_index("cell"), "cell", pa.array(cc.astype(np.int64), pa.int64())
        )

    tiles_tagged = tile_specs.map_batches(_tag_tiles, batch_format="pyarrow", batch_size=8192)

    # co-group: union with a side tag; schemas aligned with nulls.
    # Shuffle key is hash(cell) % nbuckets so dispatch cost is per
    # BUCKET; cells never split across buckets, so owner-cell dedup
    # semantics are untouched.
    t_side = tiles_tagged.map_batches(
        lambda b: _add_bucket(_pad_side(b, 0), nbuckets),
        batch_format="pyarrow", batch_size=8192,
    )
    f_side = feats_tagged.map_batches(
        lambda b: _add_bucket(_pad_side(b, 1), nbuckets),
        batch_format="pyarrow", batch_size=8192,
    )
    both = t_side.union(f_side)
    # NOTE round 5: the repartition(nbuckets) that used to sit here
    # (fanning a handful of tiny map blocks out for group-dispatch
    # parallelism) was a full extra all-to-all costing more than the
    # join's own shuffle; reads are now block-sized by file bytes
    # (>=16 blocks), so the groupby inherits enough parallelism
    # without it (cold gate 3.8 -> 2.1 s at sf0.1).

    def _join_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy()
        tiles = group.filter(pa.array(side == 0))
        feats = group.filter(pa.array(side == 1))
        if tiles.num_rows == 0 or feats.num_rows == 0:
            return _out_to_table(_empty_out())
        # sort each side by cell; per-cell segments become slices
        cell_t = tiles["cell"].to_numpy().astype(np.uint64)
        cell_f = feats["cell"].to_numpy().astype(np.uint64)
        ot = np.argsort(cell_t, kind="stable")
        of = np.argsort(cell_f, kind="stable")
        tiles = tiles.take(pa.array(ot))
        feats = feats.take(pa.array(of))
        cell_t, cell_f = cell_t[ot], cell_f[of]
        uct, t_off, t_cnt = np.unique(cell_t, return_index=True, return_counts=True)
        ucf, f_off, f_cnt = np.unique(cell_f, return_index=True, return_counts=True)
        common, it, jf = np.intersect1d(uct, ucf, assume_unique=True,
                                        return_indices=True)
        if common.size == 0:
            return _out_to_table(_empty_out())
        t_off, t_cnt = t_off[it].astype(np.int64), t_cnt[it].astype(np.int64)
        f_off, f_cnt = f_off[jf].astype(np.int64), f_cnt[jf].astype(np.int64)
        ftbl = pa.table(
            {
                "feature_id": feats["feature_id"],
                "image_id": feats["f_image_id"],
                "class": feats["class"],
                "xs": feats["xs"],
                "ys": feats["ys"],
                "minx": feats["minx"],
                "miny": feats["miny"],
                "maxx": feats["maxx"],
                "maxy": feats["maxy"],
            }
        )
        pack = FeaturePack.from_arrow(ftbl)
        x0 = tiles["x0"].to_numpy()
        y0 = tiles["y0"].to_numpy()
        x1 = tiles["x1"].to_numpy()
        y1 = tiles["y1"].to_numpy()
        b = pack.bbox
        # candidate generation, memory-bounded at ~CHUNK pairs live:
        # small cells batch into flat vectorized chunks (int64 index
        # math); a monster cell (dense AOI where salting wasn't enough)
        # switches to a dense boolean slab scan — 1 byte per candidate
        # instead of 5 int64 arrays, the same kernel the per-cell
        # dispatch used, so worst-case memory is CHUNK bytes, not 40x.
        CHUNK = 1 << 22
        pairs_per = t_cnt * f_cnt
        S = common.size
        sur_pt, sur_pf, sur_pc = [], [], []
        i = 0
        while i < S:
            if pairs_per[i] > CHUNK:
                t0s, tcs = int(t_off[i]), int(t_cnt[i])
                f0s, fcs = int(f_off[i]), int(f_cnt[i])
                bb = b[f0s:f0s + fcs]
                slab = max(1, CHUNK // max(1, fcs))
                for s0 in range(0, tcs, slab):
                    tt = slice(t0s + s0, t0s + min(s0 + slab, tcs))
                    hit = (
                        (bb[None, :, 0] < x1[tt][:, None])
                        & (bb[None, :, 2] > x0[tt][:, None])
                        & (bb[None, :, 1] < y1[tt][:, None])
                        & (bb[None, :, 3] > y0[tt][:, None])
                    )
                    lt, lf = np.nonzero(hit)
                    sur_pt.append(lt + (t0s + s0))
                    sur_pf.append(lf + f0s)
                    sur_pc.append(np.full(len(lt), common[i], dtype=np.uint64))
                i += 1
                continue
            j, tot = i, 0
            while j < S and pairs_per[j] <= CHUNK and tot + pairs_per[j] <= CHUNK:
                tot += int(pairs_per[j])
                j += 1
            pp = pairs_per[i:j]
            seg = np.repeat(np.arange(i, j), pp)
            base = np.cumsum(pp) - pp
            within = np.arange(int(pp.sum()), dtype=np.int64) - base[seg - i]
            fcs = f_cnt[seg]
            cpt = t_off[seg] + within // fcs
            cpf = f_off[seg] + within % fcs
            hit = (
                (b[cpf, 0] < x1[cpt]) & (b[cpf, 2] > x0[cpt])
                & (b[cpf, 1] < y1[cpt]) & (b[cpf, 3] > y0[cpt])
            )
            sur_pt.append(cpt[hit])
            sur_pf.append(cpf[hit])
            sur_pc.append(common[seg][hit])
            i = j
        if not sur_pt:
            return _out_to_table(_empty_out())
        pt = np.concatenate(sur_pt).astype(np.int64)
        pf = np.concatenate(sur_pf).astype(np.int64)
        pcell = np.concatenate(sur_pc)
        if len(pt) == 0:
            return _out_to_table(_empty_out())
        # dedup guard: emit a (tile, feature) pair only in the cell that
        # owns the intersection's min corner, so replicated copies on
        # both sides can't double-count (res-aware for salted cells)
        ix0 = np.maximum(b[pf, 0], x0[pt])
        iy0 = np.maximum(b[pf, 1], y0[pt])
        res = (pcell >> np.uint64(58)).astype(np.int64)
        owner = np.empty(len(pt), dtype=np.uint64)
        for r in np.unique(res):
            m = res == r
            owner[m] = cells.cell_of_point(ix0[m], iy0[m], int(r))
        keep = owner == pcell
        pt, pf, pcell = pt[keep], pf[keep], pcell[keep]
        if len(pt) == 0:
            return _out_to_table(_empty_out())
        tid_arr = tiles["tile_id"].combine_chunks()
        iid_arr = tiles["t_image_id"].combine_chunks()
        if isinstance(tid_arr, pa.ChunkedArray):
            tid_arr = pa.concat_arrays(tid_arr.chunks)
            iid_arr = pa.concat_arrays(iid_arr.chunks)
        return clip_pairs(
            pack, pt, pf, tid_arr, iid_arr, x0, y0, x1, y1,
            pcell.astype(np.int64), min_partial_perc,
        )

    return both.groupby("bucket").map_groups(_join_bucket, batch_format="pyarrow")


def _add_bucket(batch: pa.Table, nbuckets: int) -> pa.Table:
    """Shuffle-key column: Knuth hash of the cell id mod nbuckets."""
    c = batch["cell"].to_numpy().astype(np.uint64)
    bucket = ((c * np.uint64(2654435761)) % np.uint64(nbuckets)).astype(np.int32)
    return batch.append_column("bucket", pa.array(bucket))


def _pad_side(batch: pa.Table, side: int) -> pa.Table:
    """Align tile-spec and feature schemas for union (null-padded)."""
    n = batch.num_rows
    nulls_f64 = pa.nulls(n, pa.float64())
    nulls_str = pa.nulls(n, pa.string())
    nulls_i64 = pa.nulls(n, pa.int64())
    nulls_list = pa.nulls(n, pa.list_(pa.float64()))
    if side == 0:
        cols = {
            "cell": batch["cell"],
            "side": pa.array(np.zeros(n, dtype=np.int8)),
            "tile_id": batch["tile_id"],
            "t_image_id": batch["image_id"],
            "x0": batch["x0"],
            "y0": batch["y0"],
            "x1": batch["x1"],
            "y1": batch["y1"],
            "feature_id": nulls_i64,
            "f_image_id": nulls_str,
            "class": nulls_str,
            "xs": nulls_list,
            "ys": nulls_list,
            "minx": nulls_f64,
            "miny": nulls_f64,
            "maxx": nulls_f64,
            "maxy": nulls_f64,
        }
    else:
        cols = {
            "cell": batch["cell"],
            "side": pa.array(np.ones(n, dtype=np.int8)),
            "tile_id": nulls_str,
            "t_image_id": nulls_str,
            "x0": nulls_f64,
            "y0": nulls_f64,
            "x1": nulls_f64,
            "y1": nulls_f64,
            "feature_id": batch["feature_id"],
            "f_image_id": batch["image_id"],
            "class": batch["class"],
            "xs": batch["xs"],
            "ys": batch["ys"],
            "minx": batch["minx"],
            "miny": batch["miny"],
            "maxx": batch["maxx"],
            "maxy": batch["maxy"],
        }
    return pa.table(cols)
