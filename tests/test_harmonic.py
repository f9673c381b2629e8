"""Sampled-source harmonic centrality — both physical plans."""

import contextlib

import numpy as np
import pyarrow as pa
import pytest

from conftest import small_blocks


def _ring_edges(n: int) -> pa.Table:
    # undirected ring + one chord so distances are interesting
    i = np.arange(n, dtype=np.int64)
    src = np.concatenate([i, (i + 1) % n, i, (i + 5) % n])
    dst = np.concatenate([(i + 1) % n, i, (i + 5) % n, i])
    return pa.table({"src": src, "dst": dst})


def _brute(n: int, sources, edge_tbl: pa.Table):
    adj = {}
    for s, d in zip(edge_tbl["src"].to_pylist(), edge_tbl["dst"].to_pylist()):
        adj.setdefault(s, set()).add(d)
    reached = np.zeros(n, np.int64)
    harm = np.zeros(n, np.int64)
    for s0 in sources:
        dist = {s0: 0}
        frontier = [s0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        for v, d in dist.items():
            if d > 0:
                reached[v] += 1
                harm[v] += 1_000_000 // d
    return reached, harm


@pytest.mark.parametrize("small", [False, True],  # CSR task vs BFS rounds
                         ids=["default", "small_blocks"])
def test_harmonic_matches_bruteforce(ray_session, small, monkeypatch):
    import ray.data

    from solaris_ray.stages import bfs, harmonic

    plans, bfs_hops = [], bfs.bfs_hops

    def _bfs(*a, **kw):
        stats = {}
        out = bfs_hops(*a, stats_out=stats, **kw)
        plans.append(stats["plan"])
        return out

    # the bfs runs are the rounds plan; the one-bucket plan starts none
    monkeypatch.setattr(bfs, "bfs_hops", _bfs)
    n = 60
    tbl = _ring_edges(n)
    sources = [0, 17, 40]
    with small_blocks(ray.data.from_arrow(tbl)) if small else contextlib.nullcontext():
        out = (
            harmonic.harmonic_centrality(ray.data.from_arrow(tbl), sources)
            .to_pandas().set_index("node").sort_index()
        )
    assert plans == (["frontier-rounds"] * len(sources) if small else [])
    reached, harm = _brute(n, sources, tbl)
    want_nodes = np.flatnonzero(reached)
    assert out.index.tolist() == want_nodes.tolist()
    assert out["n_reached"].tolist() == reached[want_nodes].tolist()
    assert out["h_micro"].tolist() == harm[want_nodes].tolist()


def test_harmonic_requires_sources(ray_session):
    import ray.data

    from solaris_ray.stages.harmonic import harmonic_centrality

    with pytest.raises(ValueError):
        harmonic_centrality(ray.data.from_arrow(_ring_edges(8)), [])
