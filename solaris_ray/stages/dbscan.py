"""Distributed DBSCAN over point tables (cell-partitioned, exact-dup
pre-collapsed).

Density clustering for spatial curation (reference clusters features
per tile; DBSCAN is the classic density generalization — Ester et al.,
KDD'96).  Deterministic label convention so a SQL twin exists:

- a point is CORE iff >= ``min_pts`` points (itself included) lie
  within ``eps``;
- clusters are connected components of the core-core within-``eps``
  graph, labelled by the MINIMUM core id in the component;
- a BORDER point (non-core with >= 1 core neighbour) joins the
  cluster of its minimum-id core neighbour;
- everything else is noise, ``cluster = -1``.

Scale plan: grid cells of edge ``eps`` mean every within-``eps``
neighbour of a point lies in its 3x3 cell block.  Each point is
replicated to those 9 cells (id/x/y-only rows, 9x a 28-byte row — the
only data-size-proportional shuffle); ONE ``co_shuffle`` on the cell
id co-locates each cell with its halo.

EXACT-duplicATE pre-collapse (the embedding-near-dup lesson): points
sharing identical coordinates — grid-snapped geodata does this
constantly — form a SITE with (multiplicity, min point id).  Every
point of a site has the identical neighbourhood, core flag, and
cluster, so counts / pairs / components all run at SITE granularity:
a k-fold duplicated location costs one row instead of a k-clique of
k(k-1)/2 pairs.  Identical coords land in one owner cell, so the
collapse is in-kernel — no extra shuffle.  Neighbour counts are
multiplicity-weighted (exact per-point semantics); site pairs emit
exactly once (min-id_a < min-id_b in the owner's cell); transitive
closure rides components.connected_components over site ids; points
rejoin their site's label through one membership co-shuffle.

Partitioning assumption (SURVEY custom-operator rule): cell edge =
``eps`` bounds the halo at 3x3; per-cell DISTINCT-SITE count is the
skew knob — a hot cell is a genuinely dense neighbourhood, exactly
the place DBSCAN's own O(sites^2) cost lives.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle
from .components import connected_components
from .relational import hash_join

# grid offset/stride: cell indexes live in [0, 2^21), so the combined
# key (cx * 2^21 + cy) stays far inside int64 — supports extents up to
# ~±1M cells per axis relative to ``eps``.
_OFF = np.int64(1) << np.int64(20)
_STRIDE = np.int64(1) << np.int64(21)


def dbscan(
    points,
    eps: float,
    min_pts: int,
    id_col: str = "point_id",
    x_col: str = "x",
    y_col: str = "y",
):
    """-> (point_id, cluster) for every input point; noise = -1."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    if min_pts < 1:
        raise ValueError("min_pts must be >= 1")
    eps2 = float(eps) * float(eps)

    # ---- tag: batch-local site collapse, replicate to 3x3 cells ------
    # Rows carry (cell, own, site min id, site multiplicity, x, y);
    # k=2 membership rows (pid -> batch-local site rep) emit ONCE (not
    # replicated) and are finalized in the owner cell where the global
    # site rep (min id over the whole site) is known.
    def _tag(batch: pa.Table) -> pa.Table:
        i = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.float64)
        # batch-local collapse on exact coordinate bits
        key = np.stack([x.view(np.int64), y.view(np.int64)], axis=1)
        uniq, inv = np.unique(key, axis=0, return_inverse=True)
        m = np.bincount(inv, minlength=uniq.shape[0]).astype(np.int64)
        rep = np.full(uniq.shape[0], np.iinfo(np.int64).max, np.int64)
        np.minimum.at(rep, inv, i)
        ux = uniq[:, 0].view(np.float64)
        uy = uniq[:, 1].view(np.float64)
        cx = np.floor(ux / eps).astype(np.int64) + _OFF
        cy = np.floor(uy / eps).astype(np.int64) + _OFF
        n = rep.size
        # 9-cell replication of the SITE rows
        reps = np.repeat(rep, 9)
        ms = np.repeat(m, 9)
        xs = np.repeat(ux, 9)
        ys = np.repeat(uy, 9)
        dx = np.tile(np.repeat(np.arange(-1, 2, dtype=np.int64), 3), n)
        dy = np.tile(np.tile(np.arange(-1, 2, dtype=np.int64), 3), n)
        cell = (np.repeat(cx, 9) + dx) * _STRIDE + (np.repeat(cy, 9) + dy)
        own = ((dx == 0) & (dy == 0)).astype(np.int8)
        # membership rows: every point -> its batch-local site rep,
        # pinned to the site's OWN cell (own=2) so the owner kernel can
        # remap batch-local reps to the global site rep
        # own=2 membership rows: one per point, pinned to the site's
        # home cell; "m" carries the point id, coords identify the site
        home = (cx * _STRIDE + cy)[inv]
        cell_all = np.concatenate([cell, home])
        own_all = np.concatenate([own, np.full(i.size, 2, np.int8)])
        rep_all = np.concatenate([reps, np.zeros(i.size, np.int64)])
        m_all = np.concatenate([ms, i])
        x_all = np.concatenate([xs, x])
        y_all = np.concatenate([ys, y])
        return pa.table(
            {
                "cell": pa.array(cell_all, pa.int64()),
                "own": pa.array(own_all, pa.int8()),
                "sid": pa.array(rep_all, pa.int64()),
                "m": pa.array(m_all, pa.int64()),
                "px": pa.array(x_all, pa.float64()),
                "py": pa.array(y_all, pa.float64()),
            }
        )

    # kind-tagged output: k=0 site counts (a=site id, b=weighted
    # neighbour count), k=1 site pairs (a, b), k=2 membership (a=point
    # id, b=global site id)
    kab = pa.schema([("k", pa.int64()), ("a", pa.int64()), ("b", pa.int64())])

    def _local(group: pa.Table) -> pa.Table:
        cell = group["cell"].to_numpy(zero_copy_only=False)
        own = group["own"].to_numpy(zero_copy_only=False)
        sid = group["sid"].to_numpy(zero_copy_only=False)
        m = group["m"].to_numpy(zero_copy_only=False)
        xs = group["px"].to_numpy(zero_copy_only=False)
        ys = group["py"].to_numpy(zero_copy_only=False)
        order = np.argsort(cell, kind="stable")
        cell, own, sid, m, xs, ys = (
            cell[order], own[order], sid[order], m[order], xs[order], ys[order]
        )
        starts = np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))
        ends = np.append(starts[1:], cell.size)
        out_k, out_a, out_b = [], [], []
        for s, e in zip(starts, ends):  # loop over CELLS, not rows
            o = own[s:e]
            osel = o == 1
            gsel = o != 2  # owner + ghost site rows participate in geometry
            psel = o == 2  # membership point rows
            if not osel.any():
                continue
            # merge batch-local site fragments of identical coords
            okey = np.stack(
                [xs[s:e][osel].view(np.int64), ys[s:e][osel].view(np.int64)],
                axis=1,
            )
            u, inv = np.unique(okey, axis=0, return_inverse=True)
            site_id = np.full(u.shape[0], np.iinfo(np.int64).max, np.int64)
            np.minimum.at(site_id, inv, sid[s:e][osel])
            site_m = np.zeros(u.shape[0], np.int64)
            np.add.at(site_m, inv, m[s:e][osel])
            ox = u[:, 0].view(np.float64)
            oy = u[:, 1].view(np.float64)
            # all geometry rows (owners + ghosts), fragment-merged too
            gkey = np.stack(
                [xs[s:e][gsel].view(np.int64), ys[s:e][gsel].view(np.int64)],
                axis=1,
            )
            gu, ginv = np.unique(gkey, axis=0, return_inverse=True)
            g_id = np.full(gu.shape[0], np.iinfo(np.int64).max, np.int64)
            np.minimum.at(g_id, ginv, sid[s:e][gsel])
            g_m = np.zeros(gu.shape[0], np.int64)
            # fragments are disjoint point subsets of one site (batch
            # split), so summing fragment multiplicities is exact
            np.add.at(g_m, ginv, m[s:e][gsel])
            ax = gu[:, 0].view(np.float64)
            ay = gu[:, 1].view(np.float64)
            d2 = (ox[:, None] - ax[None, :]) ** 2 + (
                oy[:, None] - ay[None, :]
            ) ** 2
            within = d2 <= eps2
            cnt = within @ g_m  # multiplicity-weighted neighbour count
            out_k.append(np.zeros(site_id.size, np.int64))
            out_a.append(site_id)
            out_b.append(cnt.astype(np.int64))
            r, c = np.nonzero(within & (site_id[:, None] < g_id[None, :]))
            if r.size:
                out_k.append(np.ones(r.size, np.int64))
                out_a.append(site_id[r])
                out_b.append(g_id[c])
            if psel.any():
                # membership: point id -> global site id (exact-coord
                # lookup into the owner site table)
                pkey = np.stack(
                    [xs[s:e][psel].view(np.int64), ys[s:e][psel].view(np.int64)],
                    axis=1,
                )
                # 2-column lookup into u (np.unique(axis=0) returns rows
                # lex-sorted — same order as the structured int64 pair)
                uv = u.copy().view([("a", np.int64), ("b", np.int64)]).ravel()
                pv = pkey.copy().view([("a", np.int64), ("b", np.int64)]).ravel()
                pos = np.searchsorted(uv, pv)
                out_k.append(np.full(pv.size, 2, np.int64))
                out_a.append(m[s:e][psel])  # the point id
                out_b.append(site_id[pos])
        if not out_k:
            return kab.empty_table()
        return pa.table(
            {
                "k": pa.array(np.concatenate(out_k), pa.int64()),
                "a": pa.array(np.concatenate(out_a), pa.int64()),
                "b": pa.array(np.concatenate(out_b), pa.int64()),
            }
        )

    tagged = co_shuffle(points.map_batches(_tag, batch_format="pyarrow"),
                        "cell", _local).materialize()

    def _counts(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["k"], 0))
        return pa.table({"cid": t["a"], "n_nbr": t["b"]})

    def _pairs(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["k"], 1))
        return pa.table({"a": t["a"], "b": t["b"]})

    def _members(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["k"], 2))
        return pa.table({id_col: t["a"], "site": t["b"]})

    counts = tagged.map_batches(_counts, batch_format="pyarrow")
    pairs = tagged.map_batches(_pairs, batch_format="pyarrow")
    members = tagged.map_batches(_members, batch_format="pyarrow")

    def _core(name):
        def _f(batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.greater_equal(batch["n_nbr"], min_pts))
            return pa.table({name: t["cid"]})

        return _f

    core_a = counts.map_batches(_core("ka"), batch_format="pyarrow")
    core_b = counts.map_batches(_core("kb"), batch_format="pyarrow")

    # flag each pair endpoint's core-ness (left joins keep every pair)
    flagged = hash_join(
        hash_join(pairs, core_a, "a", "ka", how="left"),
        core_b, "b", "kb", how="left",
    ).materialize()

    def _cc_edges(batch: pa.Table) -> pa.Table:
        mboth = pc.and_(pc.is_valid(batch["ka"]), pc.is_valid(batch["kb"]))
        t = batch.filter(mboth)
        return pa.table({"ea": t["a"], "eb": t["b"]})

    def _border_cand(batch: pa.Table) -> pa.Table:
        av = pc.is_valid(batch["ka"])
        bv = pc.is_valid(batch["kb"])
        t = batch.filter(pc.xor(av, bv))
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        a_core = pc.is_valid(t["ka"]).to_numpy(zero_copy_only=False)
        bid = np.where(a_core, b, a)
        cnb = np.where(a_core, a, b)
        return pa.table(
            {"bid": pa.array(bid, pa.int64()), "cnb": pa.array(cnb, pa.int64())}
        )

    cc_edges = flagged.map_batches(_cc_edges, batch_format="pyarrow")
    core_nodes = counts.map_batches(
        lambda b: pa.table(
            {"node": b.filter(pc.greater_equal(b["n_nbr"], min_pts))["cid"]}
        ),
        batch_format="pyarrow",
    )

    out_schema = pa.schema([(id_col, pa.int64()), ("cluster", pa.int64())])

    # no core sites at all -> every point is noise (also keeps
    # downstream schemas known: Ray reports schema=None when empty)
    if core_nodes.count() == 0:
        return members.map_batches(
            lambda b: pa.table(
                {
                    id_col: b[id_col],
                    "cluster": pa.array(
                        np.full(b.num_rows, -1, np.int64), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )

    comp = connected_components(
        cc_edges, core_nodes, id_a="ea", id_b="eb", node_col="node"
    )

    core_out = comp.map_batches(
        lambda b: pa.table({"site2": b["node"], "cluster": b["component"]}),
        batch_format="pyarrow",
    )

    # border site -> min-id core neighbour site -> that site's component
    border_cand = flagged.map_batches(_border_cand, batch_format="pyarrow")
    if border_cand.count() == 0:
        import ray

        border_out = ray.data.from_arrow(
            pa.schema([("site2", pa.int64()), ("cluster", pa.int64())])
            .empty_table()
        )
    else:
        border_min = border_cand.groupby("bid").min("cnb")
        border_out = hash_join(
            border_min, comp, "min(cnb)", "node", how="inner"
        ).map_batches(
            lambda b: pa.table({"site2": b["bid"], "cluster": b["component"]}),
            batch_format="pyarrow",
        )

    assigned = core_out.union(border_out)
    joined = hash_join(members, assigned, "site", "site2", how="left")

    def _final(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return out_schema.empty_table()
        cl = pc.coalesce(batch["cluster"], pa.scalar(-1, pa.int64()))
        return pa.table(
            {id_col: batch[id_col], "cluster": pc.cast(cl, pa.int64())}
        )

    return joined.map_batches(_final, batch_format="pyarrow")
