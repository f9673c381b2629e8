"""Spatial dissolve — merge transitively-overlapping features.

The geopandas ``dissolve`` / ``unary_union`` analogue at scale: find
every pair of overlapping footprints with a cell-partitioned
self-join, then resolve transitive overlap closure with the engine's
distributed connected components (stages/components.py).  Reference
context: solaris merges touching footprints via shapely's unary_union
inside one process (`/root/reference/solaris/vector/mask.py` contact
handling); a trillion-footprint layer needs the pair graph + CC
composition instead.

Self-join shape (the exactly-once idiom shared with stages/rangejoin
and stages/knn): every rect replicates to the grid cells it covers,
one ``co_shuffle`` on (cx, cy) brings each cell's rects together,
inside a cell all candidate pairs are generated vectorized, and a pair
is EMITTED only by the owner cell — the cell containing the
intersection's min corner — so no global dedup pass is needed.

Output: (feature id, component) — component = min feature id of the
dissolve group; singletons are their own group.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import co_shuffle


def overlap_pairs(rects, cell: float = 256.0, id_col: str = "fid",
                  dense_cutoff: int = 1024, spanning: bool = False,
                  max_cell: int = 65536):
    """rects (fid, x0, y0, x1, y1) -> distinct overlapping pairs
    (doc_a < doc_b).  Overlap = strict interior intersection
    (touching edges do NOT join), evaluated identically in the SQL
    oracle.

    Dense cells (> ``dense_cutoff`` rects — a mass-stacked footprint
    dump, exactly what a dissolve pass exists to clean) never build the
    O(m^2) pair index in memory:

    - ``spanning=False`` (the public pair API): pairwise tests run in
      ``dense_cutoff``-sized chunk blocks (bounded memory), keeping the
      exactly-once owner-cell emission; cells beyond ``max_cell`` rects
      are truncated WITH a logged warning (the capped-bucket pattern of
      the dedup/rangejoin stages) because the pair LIST itself is
      Θ(m^2) for an all-overlapping cell.
    - ``spanning=True`` (what ``dissolve`` uses): a chunked local
      union-find emits one (root, member) spanning edge per rect —
      O(m) output, no cap and no truncation ever needed — which
      preserves the cell's overlap connectivity exactly, and that is
      all a connected-components consumer observes.  Fully-connected
      cells short-circuit after the first chunk sweep, so 1M identical
      rects cost O(m·chunk) tests, not O(m^2)."""
    rep_schema = pa.schema(
        [("cx", pa.int64()), ("cy", pa.int64()), (id_col, pa.int64()),
         ("x0", pa.float64()), ("y0", pa.float64()),
         ("x1", pa.float64()), ("y1", pa.float64())]
    )

    def _replicate(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return rep_schema.empty_table()
        fid = batch[id_col].to_numpy(zero_copy_only=False)
        x0 = batch["x0"].to_numpy(zero_copy_only=False)
        y0 = batch["y0"].to_numpy(zero_copy_only=False)
        x1 = batch["x1"].to_numpy(zero_copy_only=False)
        y1 = batch["y1"].to_numpy(zero_copy_only=False)
        cx0 = np.floor(x0 / cell).astype(np.int64)
        cx1 = np.floor(x1 / cell).astype(np.int64)
        cy0 = np.floor(y0 / cell).astype(np.int64)
        cy1 = np.floor(y1 / cell).astype(np.int64)
        nx = cx1 - cx0 + 1
        ny = cy1 - cy0 + 1
        reps = (nx * ny).astype(np.int64)
        total = int(reps.sum())
        row = np.repeat(np.arange(fid.size, dtype=np.int64), reps)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(reps) - reps, reps)
        cx = cx0[row] + within % nx[row]
        cy = cy0[row] + within // nx[row]
        return pa.table(
            {
                "cx": pa.array(cx, pa.int64()),
                "cy": pa.array(cy, pa.int64()),
                id_col: pa.array(fid[row], pa.int64()),
                "x0": pa.array(x0[row], pa.float64()),
                "y0": pa.array(y0[row], pa.float64()),
                "x1": pa.array(x1[row], pa.float64()),
                "y1": pa.array(y1[row], pa.float64()),
            }
        )

    pair_schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])

    def _hits(A, B, x0, y0, x1, y1, owner_cx, owner_cy):
        """Overlap mask for candidate index pairs (A[i], B[i]); when
        owner_cx is not None also require the owner-cell rule."""
        ox0 = np.maximum(x0[A], x0[B])
        oy0 = np.maximum(y0[A], y0[B])
        hit = (ox0 < np.minimum(x1[A], x1[B])) & (
            oy0 < np.minimum(y1[A], y1[B])
        )
        if owner_cx is not None:
            hit &= (np.floor(ox0 / cell).astype(np.int64) == owner_cx) & (
                np.floor(oy0 / cell).astype(np.int64) == owner_cy
            )
        return hit

    def _cell_dense(idx, fid, x0, y0, x1, y1, owner_cx, owner_cy, out_a, out_b):
        """Dense cell: chunk-blocked pairwise tests, memory O(chunk^2).

        spanning mode drives a local union-find and emits (root, member)
        spanning edges — O(m) rows; a fully-connected cell stops after
        one sweep.  pair mode keeps exactly-once owner emission with a
        logged ``max_cell`` truncation guard."""
        if not spanning and idx.size > max_cell:
            import logging

            logging.getLogger("solaris_ray.dissolve").warning(
                "overlap cell (%d, %d) truncated: %d of %d rects dropped",
                owner_cx, owner_cy, idx.size - max_cell, idx.size,
            )
            idx = idx[:max_cell]
        m = idx.size
        chunk = dense_cutoff
        if spanning:
            parent = np.arange(m, dtype=np.int64)
            ncomp = m

            def _find(a: int) -> int:
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return int(a)

        for s0 in range(0, m, chunk):
            e0 = min(s0 + chunk, m)
            for s1 in range(s0, m, chunk):
                e1 = min(s1 + chunk, m)
                if s0 == s1:
                    ia, ib = np.triu_indices(e0 - s0, k=1)
                    A, B = idx[ia + s0], idx[ib + s0]
                    la, lb = ia + s0, ib + s0
                else:
                    la, lb = np.meshgrid(
                        np.arange(s0, e0), np.arange(s1, e1), indexing="ij"
                    )
                    la, lb = la.ravel(), lb.ravel()
                    A, B = idx[la], idx[lb]
                if spanning:
                    # skip pairs already connected (vectorized root walk)
                    ra, rb = parent[la], parent[lb]
                    for _ in range(64):
                        nra, nrb = parent[ra], parent[rb]
                        if np.array_equal(nra, ra) and np.array_equal(nrb, rb):
                            break
                        ra, rb = nra, nrb
                    sel = ra != rb
                    la, lb, A, B = la[sel], lb[sel], A[sel], B[sel]
                    if la.size == 0:
                        continue
                hit = _hits(A, B, x0, y0, x1, y1,
                            None if spanning else owner_cx,
                            None if spanning else owner_cy)
                if not hit.any():
                    continue
                if spanning:
                    for i, j in zip(la[hit], lb[hit]):
                        ri, rj = _find(int(i)), _find(int(j))
                        if ri != rj:
                            if ri < rj:
                                parent[rj] = ri
                            else:
                                parent[ri] = rj
                            ncomp -= 1
                    if ncomp == 1:
                        break
                else:
                    fa, fb = fid[A[hit]], fid[B[hit]]
                    out_a.append(np.minimum(fa, fb))
                    out_b.append(np.maximum(fa, fb))
            if spanning and ncomp == 1:
                break
        if spanning:
            roots = np.fromiter(
                (_find(k) for k in range(m)), np.int64, count=m
            )
            member = roots != np.arange(m)
            if member.any():
                fa = fid[idx[roots[member]]]
                fb = fid[idx[np.flatnonzero(member)]]
                out_a.append(np.minimum(fa, fb))
                out_b.append(np.maximum(fa, fb))

    def _pairs(group: pa.Table) -> pa.Table:
        m = group.num_rows
        if m < 2:
            return pair_schema.empty_table()
        cx = group["cx"].to_numpy(zero_copy_only=False)
        cy = group["cy"].to_numpy(zero_copy_only=False)
        fid = group[id_col].to_numpy(zero_copy_only=False)
        x0 = group["x0"].to_numpy(zero_copy_only=False)
        y0 = group["y0"].to_numpy(zero_copy_only=False)
        x1 = group["x1"].to_numpy(zero_copy_only=False)
        y1 = group["y1"].to_numpy(zero_copy_only=False)
        # a bucket holds several distinct cells: process per distinct
        # (cx, cy) via sorted runs
        key = cx * np.int64(1 << 32) + cy
        o = np.argsort(key, kind="stable")
        key_s = key[o]
        starts = np.flatnonzero(np.r_[True, key_s[1:] != key_s[:-1]])
        ends = np.r_[starts[1:], key_s.size]
        out_a, out_b = [], []
        for s, e in zip(starts, ends):
            idx = o[s:e]
            if idx.size < 2:
                continue
            if idx.size > dense_cutoff:
                _cell_dense(idx, fid, x0, y0, x1, y1,
                            cx[idx[0]], cy[idx[0]], out_a, out_b)
                continue
            ia, ib = np.triu_indices(idx.size, k=1)
            A, B = idx[ia], idx[ib]
            hit = _hits(A, B, x0, y0, x1, y1,
                        None if spanning else cx[idx[0]],
                        None if spanning else cy[idx[0]])
            if not hit.any():
                continue
            fa, fb = fid[A[hit]], fid[B[hit]]
            out_a.append(np.minimum(fa, fb))
            out_b.append(np.maximum(fa, fb))
        if not out_a:
            return pair_schema.empty_table()
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a), pa.int64()),
                "doc_b": pa.array(np.concatenate(out_b), pa.int64()),
            }
        )

    reps = rects.map_batches(_replicate, batch_format="pyarrow", batch_size=4096)
    return co_shuffle(reps, ["cx", "cy"], _pairs)


def dissolve(rects, cell: float = 256.0, id_col: str = "fid",
             max_rounds: int = 50, cc_stats: dict | None = None):
    """rects -> (fid, component): transitive-overlap dissolve groups.

    Uses ``overlap_pairs(spanning=True)``: dense cells emit O(m)
    union-find spanning edges instead of the Θ(m^2) pair list — same
    connected components, no blow-up when duplicate mass stacks in one
    cell."""
    from .components import connected_components

    pairs = overlap_pairs(rects, cell=cell, id_col=id_col, spanning=True)
    return connected_components(
        pairs, rects.select_columns([id_col]).materialize(), node_col=id_col,
        max_rounds=max_rounds, stats_out=cc_stats,
    )
