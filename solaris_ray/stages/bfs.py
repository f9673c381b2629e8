"""Distributed multi-source BFS — exact hop distances over an edge table.

Distance-to-nearest-seed is the graph twin of the geospatial
"distance to POI" primitive (reference's road graphs feed exactly this
kind of reachability question; `/root/reference/solaris/vector/graph.py`
builds the graph but has no analytics).  Multi-source BFS also powers
crawl-frontier depth limits and link-graph quality tiers in corpus
curation.

``bfs_hops`` is ``sssp.sssp_dist`` over unit weights, so both physical
plans (one CSR task for small graphs, frontier-synchronous rounds for
large ones) are the weighted engine's.  This is exact, not an
approximation: with every weight 1, round r of the label-correcting
relaxation improves exactly the unreached out-neighbours of the nodes
at distance r (a reached node already holds its minimum hop count, and
any candidate for it is >= that count), so labels, frontiers and round
counts equal synchronous BFS's.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ._buckets import SMALL_EDGE_LIMIT
from .sssp import sssp_dist

_OUT_SCHEMA = pa.schema([("node", pa.int64()), ("hops", pa.int64())])


def bfs_hops(
    edges,
    seeds,
    src_col: str = "src",
    dst_col: str = "dst",
    seed_col: str = "node",
    max_rounds: int = 256,
    small_edge_limit: int = SMALL_EDGE_LIMIT,
    stats_out: dict | None = None,
):
    """Directed ``edges`` + ``seeds`` datasets -> (node, hops): the
    exact minimum hop count from any seed, for every reachable node
    (seeds themselves at 0).  Unreachable nodes are absent.

    ``max_rounds`` is a safety valve only — the loop exits when the
    frontier empties, and raises if the valve trips first (a partial
    BFS must never be mistaken for a converged one).
    """
    import ray.data

    def _unit(batch: pa.Table) -> pa.Table:
        w = pa.array(np.ones(batch.num_rows, np.int64))
        return pa.table({"src": batch[src_col], "dst": batch[dst_col], "w": w})

    dist = sssp_dist(
        edges.map_batches(_unit, batch_format="pyarrow"),
        seeds,
        seed_col=seed_col,
        max_rounds=max_rounds,
        small_edge_limit=small_edge_limit,
        stats_out=stats_out,
    ).materialize()
    if dist.count() == 0:  # a rename over no blocks would drop the schema
        return ray.data.from_arrow(_OUT_SCHEMA.empty_table())
    return dist.map_batches(
        lambda b: b.rename_columns(_OUT_SCHEMA.names), batch_format="pyarrow"
    )
