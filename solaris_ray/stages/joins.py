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
the feature layer's size; both share the candidate harvest
``_candidate_pairs`` and the clip kernel ``clip_pairs``, so both emit
the same rows:

1. **Broadcast join** (`broadcast_spatial_join_tasks`): when the layer
   fits ``BROADCAST_LIMIT_BYTES``, build one cell-bucketed index,
   ``ray.put`` it once, and map tasks over tile specs
   (``runtime.stateful_map``) — each worker process fetches the index
   once.  No shuffle; this mirrors the reference's single global
   ``gdf.sindex`` (solaris/eval/base.py:46) but distributed.
2. **Cell-partitioned join** (`cell_partitioned_join`): large layers.
   Replicate features and tiles to every cell their bboxes cover, with
   hot cells split finer first (a plan-only step), and join each
   bucket of one ``_buckets.co_shuffle`` keyed on the cell.
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
from ._buckets import co_shuffle

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


# the feature layer's columns: ``FeaturePack.from_arrow`` reads them, and
# an empty layer without columns is read as this schema
FEATURE_SCHEMA = pa.schema(
    [
        ("feature_id", pa.int64()),
        ("image_id", pa.string()),
        ("class", pa.string()),
        ("xs", pa.list_(pa.float64())),
        ("ys", pa.list_(pa.float64())),
        ("minx", pa.float64()),
        ("miny", pa.float64()),
        ("maxx", pa.float64()),
        ("maxy", pa.float64()),
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

    Two vectorized phases: (1) candidate harvesting over every cell
    each tile covers (``_candidate_pairs``), then one dedup of the
    pairs met through several cells, producing flat (tile, feature)
    pair arrays; (2) one batched Sutherland–Hodgman clip of ALL polygon
    pairs at once (geom.poly.clip_polys_to_boxes_batch) — the per-pair
    Python of the naive kernel was the join's scaling bottleneck.  Line features
    (the minority class) keep the scalar Liang–Barsky path.
    """
    tid_arr = batch["tile_id"].combine_chunks() if isinstance(batch["tile_id"], pa.ChunkedArray) else batch["tile_id"]
    iid_arr = batch["image_id"].combine_chunks() if isinstance(batch["image_id"], pa.ChunkedArray) else batch["image_id"]
    cell_col = batch["cell"].to_numpy() if "cell" in batch.column_names else None
    x0 = batch["x0"].to_numpy()
    y0 = batch["y0"].to_numpy()
    x1 = batch["x1"].to_numpy()
    y1 = batch["y1"].to_numpy()

    trows, tcells = cells.cover_bboxes(x0, y0, x1, y1, cell_res)
    pt, pf = _candidate_pairs(buckets, trows, tcells, pack.bbox, x0, y0, x1, y1)
    # a feature reachable through several cells of one tile pairs once
    pair = np.unique(pt * np.int64(len(pack)) + pf)
    pt, pf = pair // len(pack), pair % len(pack)
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
    return _csr(*cells.cover_bboxes(
        pack.bbox[:, 0], pack.bbox[:, 1], pack.bbox[:, 2], pack.bbox[:, 3], cell_res
    ))


def _csr(rows: np.ndarray, cc: np.ndarray) -> CellBuckets:
    """The ``CellBuckets`` of (feature row, cell) pairs."""
    order = np.argsort(cc, kind="stable")
    cc = cc[order]
    rows = rows[order]
    uniq, starts = np.unique(cc, return_index=True)
    ends = np.append(starts[1:], len(cc))
    return CellBuckets(uniq, starts.astype(np.int64), ends.astype(np.int64), rows)


# candidates one ``_candidate_pairs`` slice expands: 32 MiB per int64
# array, however dense one tile batch or one cell is
CANDIDATE_CHUNK = 1 << 22


def _candidate_pairs(buckets: CellBuckets, trows: np.ndarray, tcells: np.ndarray,
                     bbox: np.ndarray, x0, y0, x1, y1) -> tuple[np.ndarray, np.ndarray]:
    """The candidate harvest of both join plans: (tile row, feature row)
    pairs whose bboxes overlap.

    Each (tile row, cell) entry of ``trows``/``tcells`` (ascending in
    tile row) pairs its tile with the feature rows ``buckets`` holds for
    the cell; ``bbox`` holds the features' boxes and ``x0``..``y1`` the
    tiles'.  The ragged expansion runs over slices of whole tile rows of
    at most ``CANDIDATE_CHUNK`` candidates (a tile row with more is a
    slice of its own), so memory stays bounded under any skew.  A
    feature met through several cells of one tile comes back once per
    cell, in ascending tile row order.
    """
    none = np.empty(0, np.int64)
    if len(buckets.cells) == 0 or len(trows) == 0:
        return none, none
    key = tcells.astype(np.int64)
    pos = np.minimum(np.searchsorted(buckets.cells, key), len(buckets.cells) - 1)
    ok = buckets.cells[pos] == key
    trows, pos = trows[ok], pos[ok]
    if len(trows) == 0:
        return none, none
    start = buckets.starts[pos]
    counts = buckets.ends[pos] - start
    offs = np.cumsum(counts) - counts
    tile_end = np.flatnonzero(np.r_[trows[1:] != trows[:-1], True])
    through = offs[tile_end] + counts[tile_end]  # candidates up to each tile row
    out_t, out_f = [], []
    t0 = 0
    while t0 < len(tile_end):
        base = int(through[t0 - 1]) if t0 else 0
        t1 = max(int(np.searchsorted(through, base + CANDIDATE_CHUNK, "right")), t0 + 1)
        e = slice(int(tile_end[t0 - 1]) + 1 if t0 else 0, int(tile_end[t1 - 1]) + 1)
        c = counts[e]
        flat = np.arange(base, int(through[t1 - 1]), dtype=np.int64)
        flat += np.repeat(start[e] - offs[e], c)
        pt = np.repeat(trows[e], c)
        pf = buckets.rows[flat]
        hit = (bbox[pf, 0] < x1[pt]) & (bbox[pf, 2] > x0[pt]) & (bbox[pf, 1] < y1[pt]) & (bbox[pf, 3] > y0[pt])
        out_t.append(pt[hit])
        out_f.append(pf[hit])
        t0 = t1
    return np.concatenate(out_t), np.concatenate(out_f)


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
        # (measured 2.3x join slowdown vs target 8); an empty layer has
        # no extent, and any resolution finds none of its features
        cell_res = cells.choose_res(
            float(_pc.min(features["minx"]).as_py()),
            float(_pc.min(features["miny"]).as_py()),
            float(_pc.max(features["maxx"]).as_py()),
            float(_pc.max(features["maxy"]).as_py()),
            features.num_rows,
            target_per_cell=8,
        ) if features.num_rows else 0
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
    out_columns: list[str] | None = None,
    batch_size: int | None = 256,
):
    """Auto-selecting spatial join: broadcast when the feature layer
    fits the object-store budget, cell-partitioned co-shuffle otherwise.

    Both physical plans share the candidate harvest and the clip kernel,
    so they emit the same rows, every ``JOIN_SCHEMA`` column bit for bit
    (parity-tested) -- the choice is purely a plan-time size decision,
    mirroring the broadcast-small-side rule of SURVEY.md §4.
    ``features`` may be an in-memory ``pyarrow.Table`` or a
    ``ray.data.Dataset``, empty or not.  ``out_columns`` projects the
    join rows on both plans; ``batch_size`` is the broadcast plan's
    tile-spec batch.
    """
    import ray

    limit = broadcast_limit_bytes if broadcast_limit_bytes is not None else BROADCAST_LIMIT_BYTES
    if isinstance(features, pa.Table):
        small = features.nbytes <= limit
    else:
        size = features.size_bytes()
        small = size is not None and size <= limit
        if small:
            # an empty layer may come as blocks without columns, or none
            blocks = [b for b in ray.get(features.to_arrow_refs()) if b.num_columns]
            features = pa.concat_tables(blocks) if blocks else FEATURE_SCHEMA.empty_table()
    if small:
        return spatial_join_tasks(
            tile_specs, features, cell_res=cell_res, min_partial_perc=min_partial_perc,
            out_columns=out_columns, batch_size=batch_size,
        )
    if isinstance(features, pa.Table):
        features = ray.data.from_arrow(features)
    joined = cell_partitioned_join(
        tile_specs, features, cell_res=cell_res or 13, min_partial_perc=min_partial_perc,
    )
    return joined.select_columns(out_columns) if out_columns else joined


# --- cell-partitioned (both sides large) ---------------------------------

# the hot-cell plan: a deterministic 1 in 4 sample of each side counts
# rows per cell; a cell is hot when its estimated features exceed
# HOT_CELL_FACTOR x the median cell's or MAX_CELL_FEATS, or its
# estimated tiles x features exceed MAX_CELL_PAIRS
HIST_SAMPLE = 0.25
HOT_CELL_FACTOR = 8.0
MAX_CELL_FEATS = 512
MAX_CELL_PAIRS = 1 << 15

_TILE, _FEATURE = 0, 1

# the shuffled rows of both sides: ``cell`` is the join cell a row was
# replicated to, ``side`` says which side the row is; a tile row fills
# the tile columns (``tile_cell`` is its own ``cell``), a feature row
# the feature columns, and ``image_id`` is each row's own
_SIDES_SCHEMA = pa.schema(
    [
        ("cell", pa.int64()),
        ("side", pa.int8()),
        ("tile_id", pa.string()),
        ("tile_cell", pa.int64()),
        ("x0", pa.float64()),
        ("y0", pa.float64()),
        ("x1", pa.float64()),
        ("y1", pa.float64()),
        *FEATURE_SCHEMA,
    ]
)


def _sample_cells(batch: pa.Table, cell_res: int, side: int) -> pa.Table:
    """Rows per cell in a deterministic ``HIST_SAMPLE`` sample of one
    side's batch: features by a hash of ``feature_id``, counted in every
    cell their bbox covers; tiles by a hash of their origin bits (tiles
    sharing a cell sample independently), counted in their own cell."""
    keep_below = np.uint64(int(HIST_SAMPLE * 1000))
    if side == _FEATURE:
        fid = batch["feature_id"].to_numpy().astype(np.uint64)
        batch = batch.filter(pa.array((fid * np.uint64(2654435761)) % np.uint64(1000) < keep_below))
        cc = cells.cover_bboxes(*(batch[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")),
                                cell_res)[1]
    else:
        key = batch["x0"].to_numpy().view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        key ^= batch["y0"].to_numpy().view(np.uint64) * np.uint64(2654435761)
        cc = batch["cell"].to_numpy()[key % np.uint64(1000) < keep_below].astype(np.uint64)
    cell, n = np.unique(cc, return_counts=True)
    return pa.table({"cell": pa.array(cell, pa.uint64()), "side": pa.array(np.full(len(cell), side, np.int8)),
                     "n": pa.array(n, pa.int64())})


def _hot_cells(tile_specs, features, cell_res: int) -> dict:
    """Hot cell id -> split depth, from one sampled map-only pass over
    each side; the driver sums the per-block counts.  (One execution
    over the union of both sides measured 3-7x slower: NOTES.md "The
    partitioned join on co_shuffle".)

    A cell's work is its tiles x its features, so a cell dense in tiles
    is as hot as one dense in features (a 24k-tile x 6k-feature cell made
    151M candidate pairs at sf0.1 before the tile side was counted).
    The relative trigger catches feature skew, the absolute one a
    uniformly dense AOI (where the median test never fires), the pair
    mass one a cell where neither side alone looks large.  One split
    level quarters each side, so feature density heals at 4^d and pair
    mass at 16^d; the deeper ask wins, capped at 6 levels.
    """
    blocks = [b for ds, side in ((tile_specs, _TILE), (features, _FEATURE))
              for b in ds.map_batches(_sample_cells, fn_args=(cell_res, side), batch_format="pyarrow")
              .iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows]
    if not blocks:
        return {}
    t = pa.concat_tables(blocks)
    side = t["side"].to_numpy()
    cell = t["cell"].to_numpy()
    n = t["n"].to_numpy()
    cells_f, inv = np.unique(cell[side == _FEATURE], return_inverse=True)
    if not len(cells_f):
        return {}
    scale = 1.0 / HIST_SAMPLE
    est = np.bincount(inv, n[side == _FEATURE]) * scale
    cells_t, inv = np.unique(cell[side == _TILE], return_inverse=True)
    n_t = np.bincount(inv, n[side == _TILE]) * scale
    est_t = np.zeros(len(est))
    _, in_f, in_t = np.intersect1d(cells_f, cells_t, assume_unique=True, return_indices=True)
    est_t[in_f] = n_t[in_t]
    est_pairs = est * est_t
    med = max(1.0, float(np.median(est)))
    is_hot = (est > HOT_CELL_FACTOR * med) | (est > MAX_CELL_FEATS) | (est_pairs > MAX_CELL_PAIRS)
    hot = {}
    for c, e, p in zip(cells_f[is_hot], est[is_hot], est_pairs[is_hot]):
        d_feat = np.ceil(np.log(max(e, 1.0) / MAX_CELL_FEATS) / np.log(4.0))
        d_pair = np.ceil(np.log(max(p, 1.0) / MAX_CELL_PAIRS) / np.log(16.0))
        hot[np.uint64(c)] = min(6, max(1, int(max(d_feat, d_pair))))
    return hot


def _retag_hot(rows_cells: tuple[np.ndarray, np.ndarray], minx, miny, maxx, maxy,
               hot: dict, cell_res: int) -> tuple[np.ndarray, np.ndarray]:
    """Replace assignments to hot cells by finer child assignments.

    ``hot`` maps cell id -> split depth.  Splits can go MULTIPLE levels:
    a cell holding 100x the target density descends log4(ratio) levels
    in one step, so a dense AOI can't leave a monster group behind (one
    level only quarters it).  Exactly-once emission survives mixed
    resolutions because the owner test derives the resolution from the
    pair's own join cell: the pair is emitted only in the cell (at ITS
    resolution) that contains the intersection's min corner.
    """
    rows, cc = rows_cells
    if not hot:
        return rows, cc
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


def _to_sides(batch: pa.Table, side: int, hot: dict, cell_res: int) -> pa.Table:
    """One side's ``batch`` replicated to every join cell its rows' boxes
    cover (hot cells split finer), in ``_SIDES_SCHEMA``."""
    box = ("x0", "y0", "x1", "y1") if side == _TILE else ("minx", "miny", "maxx", "maxy")
    minx, miny, maxx, maxy = (batch[c].to_numpy() for c in box)
    rows, cc = _retag_hot(cells.cover_bboxes(minx, miny, maxx, maxy, cell_res),
                          minx, miny, maxx, maxy, hot, cell_res)
    rep = batch.take(pa.array(rows))
    cols = dict(zip(rep.column_names, rep.columns))
    if side == _TILE:
        cols["tile_cell"] = cols["cell"]
    cols["cell"] = pa.array(cc.astype(np.int64))
    cols["side"] = pa.array(np.full(len(rows), side, np.int8))
    return pa.Table.from_arrays(
        [cols[f.name].cast(f.type) if f.name in cols else pa.nulls(len(rows), f.type)
         for f in _SIDES_SCHEMA],
        schema=_SIDES_SCHEMA,
    )


def cell_partitioned_join(
    tile_specs,
    features,
    cell_res: int = 13,
    min_partial_perc: float = 0.0,
):
    """Both-sides-large spatial join: one ``co_shuffle`` keyed on the
    join cell.

    Features are replicated to every cell their bbox covers and tiles
    to every cell theirs covers, so boundary-straddling tiles stay
    exact.  SKEW: ``_hot_cells`` counts a sample of both sides per cell,
    and hot cells are split finer (urban-density salting, SURVEY.md §4)
    before the shuffle.  The hot set only shapes the physical plan --
    the owner test is resolution-aware -- so sampling error costs at
    most balance, never correctness.

    Each bucket harvests its candidates with the broadcast plan's
    ``_candidate_pairs``, looking up each tile row's own join cell, and
    emits a (tile, feature) pair only in the cell that owns the
    intersection's min corner, so replicated copies on both sides count
    once.  Rows carry the tile's own ``cell``, as the broadcast plan's
    do: the two plans' outputs are equal.
    """
    hot = _hot_cells(tile_specs, features, cell_res)
    both = tile_specs.map_batches(
        _to_sides, fn_args=(_TILE, hot, cell_res), batch_format="pyarrow"
    ).union(features.map_batches(
        _to_sides, fn_args=(_FEATURE, hot, cell_res), batch_format="pyarrow"
    ))

    def _join_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy()
        tiles = group.filter(pa.array(side == _TILE))
        feats = group.filter(pa.array(side == _FEATURE))
        if tiles.num_rows == 0 or feats.num_rows == 0:
            return _out_to_table(_empty_out())
        pack = FeaturePack.from_arrow(feats)
        tcell = tiles["cell"].to_numpy()
        x0, y0, x1, y1 = (tiles[c].to_numpy() for c in ("x0", "y0", "x1", "y1"))
        pt, pf = _candidate_pairs(
            _csr(np.arange(len(pack)), feats["cell"].to_numpy()),
            np.arange(tiles.num_rows), tcell, pack.bbox, x0, y0, x1, y1,
        )
        # owner test at each join cell's own resolution (salted or not)
        pcell = tcell[pt].astype(np.uint64)
        ix0 = np.maximum(pack.bbox[pf, 0], x0[pt])
        iy0 = np.maximum(pack.bbox[pf, 1], y0[pt])
        res = (pcell >> np.uint64(58)).astype(np.int64)
        owner = np.empty(len(pt), dtype=np.uint64)
        for r in np.unique(res):
            m = res == r
            owner[m] = cells.cell_of_point(ix0[m], iy0[m], int(r))
        keep = owner == pcell
        pt, pf = pt[keep], pf[keep]
        if len(pt) == 0:
            return _out_to_table(_empty_out())
        return clip_pairs(
            pack, pt, pf, tiles["tile_id"].combine_chunks(), tiles["image_id"].combine_chunks(),
            x0, y0, x1, y1, tiles["tile_cell"].to_numpy()[pt], min_partial_perc,
        )

    return co_shuffle(both, "cell", _join_bucket)
