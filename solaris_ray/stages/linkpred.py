"""Link prediction over an undirected edge table: common-neighbor and
resource-allocation scores for every distance-2 non-edge pair.

Training-data-graph op (candidate generation for graph-curriculum
negatives / recommendation): for each node pair (u, w) that shares at
least one neighbor but has no direct edge, emit

- ``cn``     — the number of common neighbors (exact int64), and
- ``ra_e9``  — the Zhou et al. resource-allocation index in exact
  integer micro-units: sum over shared neighbors z of
  ``1e9 // deg(z)`` (integer division, so the SQL twin is bit-exact;
  no 1/log floats anywhere).

Shape (100 TB audit): wedges are generated per CENTER node — the
symmetrized adjacency co-shuffles once on the center id, each center's
pair triangle is enumerated closed-form in-bucket, and the resulting
(u, w, contrib) rows plus the original edges co-shuffle once more on
the pair key where edges anti-join the candidates and contributions
reduce with a lexsort-segment pass.  Total exchange: 2 id-only
shuffles; wedge volume is sum(deg^2), bounded by ``max_center_degree``
(raise — silent truncation would change scores)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import bucket_of, shuffle_width
from ._pairs import segment_pairs


def link_prediction_scores(edges, a_col: str = "a", b_col: str = "b",
                           ra_scale: int = 1_000_000_000,
                           max_center_degree: int = 65536):
    """edges (undirected, a<b, parallel edges tolerated) ->
    (u, w, cn, ra_e9) for every non-adjacent pair with cn >= 1."""
    width = shuffle_width(edges)

    def _sym(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        z = np.concatenate([a, b])
        nb = np.concatenate([b, a])
        return pa.table(
            {
                "z": pa.array(z, pa.int64()),
                "nb": pa.array(nb, pa.int64()),
                "kb": pa.array(bucket_of(z, width), pa.int64()),
            }
        )

    sym = edges.map_batches(_sym, batch_format="pyarrow", batch_size=16384)

    wedge_schema = pa.schema(
        [("u", pa.int64()), ("w", pa.int64()), ("contrib", pa.int64()),
         ("is_edge", pa.int8()), ("pb", pa.int64())]
    )

    def _pair_rows(lo, hi, contrib, is_edge: int) -> pa.Table:
        # wedge and edge rows meet in the bucket of their (lo, hi) pair
        return pa.table(
            {
                "u": pa.array(lo, pa.int64()),
                "w": pa.array(hi, pa.int64()),
                "contrib": pa.array(contrib, pa.int64()),
                "is_edge": pa.array(np.full(lo.size, is_edge, np.int8)),
                "pb": pa.array(
                    bucket_of(lo * np.int64(1_000_003) + hi, width),
                    pa.int64(),
                ),
            }
        )

    def _wedges(group: pa.Table) -> pa.Table:
        z = group["z"].to_numpy(zero_copy_only=False)
        nb = group["nb"].to_numpy(zero_copy_only=False)
        if z.size == 0:
            return wedge_schema.empty_table()
        o = np.lexsort((nb, z))
        z, nb = z[o], nb[o]
        # set semantics: drop duplicate (z, nb) rows
        keep = np.r_[True, (z[1:] != z[:-1]) | (nb[1:] != nb[:-1])]
        z, nb = z[keep], nb[keep]
        new = np.r_[True, z[1:] != z[:-1]]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, z.size])
        if counts.max(initial=0) > max_center_degree:
            raise ValueError(
                f"link_prediction: a node has degree {int(counts.max())} "
                f"(> max_center_degree={max_center_degree}); wedge fan-out "
                "would be quadratic — raise the cap deliberately or "
                "pre-sample hubs"
            )
        ia, ib, segp = segment_pairs(counts, starts)
        contrib = ra_scale // counts.astype(np.int64)
        u, w = nb[ia], nb[ib]
        return _pair_rows(np.minimum(u, w), np.maximum(u, w), contrib[segp], 0)

    wedges = sym.groupby("kb").map_groups(_wedges, batch_format="pyarrow")

    def _edge_rows(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return _pair_rows(lo, hi, np.zeros(lo.size, np.int64), 1)

    tagged = wedges.union(
        edges.map_batches(_edge_rows, batch_format="pyarrow", batch_size=16384)
    )

    out_schema = pa.schema(
        [("u", pa.int64()), ("w", pa.int64()), ("cn", pa.int64()),
         ("ra_e9", pa.int64())]
    )

    def _score(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        w = group["w"].to_numpy(zero_copy_only=False)
        contrib = group["contrib"].to_numpy(zero_copy_only=False)
        is_e = group["is_edge"].to_numpy(zero_copy_only=False)
        if u.size == 0:
            return out_schema.empty_table()
        o = np.lexsort((w, u))
        u, w, contrib, is_e = u[o], w[o], contrib[o], is_e[o]
        new = np.r_[True, (u[1:] != u[:-1]) | (w[1:] != w[:-1])]
        seg = np.cumsum(new) - 1
        nseg = int(seg[-1]) + 1
        has_edge = np.bincount(seg, weights=is_e, minlength=nseg) > 0
        cn = np.bincount(seg, weights=(is_e == 0), minlength=nseg).astype(np.int64)
        ra = np.zeros(nseg, np.int64)
        np.add.at(ra, seg, contrib)
        starts = np.flatnonzero(new)
        keep = (~has_edge) & (cn >= 1)
        return pa.table(
            {
                "u": pa.array(u[starts][keep], pa.int64()),
                "w": pa.array(w[starts][keep], pa.int64()),
                "cn": pa.array(cn[keep], pa.int64()),
                "ra_e9": pa.array(ra[keep], pa.int64()),
            }
        )

    return tagged.groupby("pb").map_groups(_score, batch_format="pyarrow")
