"""Distributed multi-source BFS — exact hop distances over an edge table.

Distance-to-nearest-seed is the graph twin of the geospatial
"distance to POI" primitive (reference's road graphs feed exactly this
kind of reachability question; `/root/reference/solaris/vector/graph.py`
builds the graph but has no analytics).  Multi-source BFS also powers
crawl-frontier depth limits and link-graph quality tiers in corpus
curation.

``bfs_hops`` is ``sssp.sssp_dist`` over unit weights, so both physical
plans are the weighted engine's: one CSR task when the first round's
input fits one block (``_buckets.byte_blocks``), frontier-synchronous
rounds otherwise.  This is exact, not an
approximation: with every weight 1, round r of the label-correcting
relaxation improves exactly the unreached out-neighbours of the nodes
at distance r (a reached node already holds its minimum hop count, and
any candidate for it is >= that count), so labels, frontiers and round
counts equal synchronous BFS's.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .sssp import sssp_dist


def bfs_hops(
    edges,
    seeds,
    src_col: str = "src",
    dst_col: str = "dst",
    seed_col: str = "node",
    max_rounds: int = 256,
    stats_out: dict | None = None,
):
    """Directed ``edges`` + ``seeds`` datasets -> (node, hops): the
    exact minimum hop count from any seed, for every reachable node
    (seeds themselves at 0).  Unreachable nodes are absent.

    ``max_rounds`` is a safety valve only — the loop exits when the
    frontier empties, and raises if the valve trips first (a partial
    BFS must never be mistaken for a converged one).
    """

    def _unit(batch: pa.Table) -> pa.Table:
        w = pa.array(np.ones(batch.num_rows, np.int64))
        return pa.table({"src": batch[src_col], "dst": batch[dst_col], "w": w})

    return sssp_dist(
        edges.map_batches(_unit, batch_format="pyarrow"),
        seeds,
        seed_col=seed_col,
        dist_col="hops",
        max_rounds=max_rounds,
        stats_out=stats_out,
    )
