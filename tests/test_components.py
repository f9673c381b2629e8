"""Connected components + fuzzy-dedup resolve tests.

Oracle: union-find in pure Python on the same edge lists; plus a
diameter-stress chain (multi-round propagation), isolated nodes, and a
mass-duplicate clique (the case that motivates the component step).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pyarrow as pa
import ray

from conftest import small_blocks
from solaris_ray.stages._buckets import co_shuffle
from solaris_ray.stages.components import connected_components, fuzzy_dedup


def _edges_ds(pairs):
    a = np.array([p[0] for p in pairs], np.int64)
    b = np.array([p[1] for p in pairs], np.int64)
    return ray.data.from_arrow(
        pa.table({"doc_a": pa.array(a), "doc_b": pa.array(b)})
    )


def _nodes_ds(ids):
    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.asarray(ids, np.int64))})
    )


def _uf(n_ids, pairs):
    parent = {i: i for i in n_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min id per component
    roots = {}
    for i in n_ids:
        r = find(i)
        roots.setdefault(r, []).append(i)
    out = {}
    for members in roots.values():
        m = min(members)
        for i in members:
            out[i] = m
    return out


def _run_cc(ids, pairs, small=False, **kw):
    # small: blocks smaller than the edges, which force the star rounds
    with small_blocks(_edges_ds(pairs)) if small else contextlib.nullcontext():
        got = connected_components(_edges_ds(pairs), _nodes_ds(ids), **kw).to_pandas()
    return dict(zip(got["doc_id"], got["component"]))


def test_cc_two_components_and_isolated(ray_session):
    ids = list(range(10))
    pairs = [(0, 1), (1, 2), (5, 6), (6, 7), (7, 5)]
    assert _run_cc(ids, pairs) == _uf(ids, pairs)


def test_cc_chain_diameter(ray_session):
    # a 25-node chain: min label must walk the full diameter
    ids = list(range(25))
    pairs = [(i, i + 1) for i in range(24)]
    got = _run_cc(ids, pairs)
    assert got == {i: 0 for i in ids}


def test_cc_random_graph_matches_union_find(ray_session):
    rng = np.random.default_rng(7)
    ids = list(range(200))
    pairs = [tuple(sorted(p)) for p in rng.integers(0, 200, (150, 2)) if p[0] != p[1]]
    want = _uf(ids, pairs)
    # both physical plans must agree with the local oracle
    s_task, s_star = {}, {}
    assert _run_cc(ids, pairs, stats_out=s_task) == want
    assert _run_cc(ids, pairs, small=True, stats_out=s_star) == want
    assert s_task["path"] == "union-find-task"
    assert s_star["path"] == "star-rounds"


def test_cc_one_bucket_after_empty_shuffle_buckets(ray_session):
    # edges out of a co_shuffle wider than their 3 distinct keys, as a
    # pair generator leaves them, with empty buckets behind: the
    # union-find task must return the star rounds' rows
    ids = list(range(12))
    pairs = [(0, 1), (0, 2), (5, 6), (5, 7), (9, 10), (9, 11)]

    def _run(small):
        stats = {}
        with small_blocks(_edges_ds(pairs)) if small else contextlib.nullcontext():
            edges = co_shuffle(_edges_ds(pairs), "doc_a", lambda t: t, 8)
            got = connected_components(edges, _nodes_ds(ids), stats_out=stats).to_pandas()
        return stats["path"], sorted(zip(got["doc_id"], got["component"]))

    path_task, task = _run(False)
    path_star, star = _run(True)
    assert (path_task, path_star) == ("union-find-task", "star-rounds")
    assert task == star == sorted(_uf(ids, pairs).items())


def test_cc_clique_mass_duplicates(ray_session):
    # LSH buckets emit cliques; 300 nodes all pairwise-linked via a hub
    # pattern (star) plus ring — converges in few rounds, one component
    ids = list(range(300))
    pairs = [(0, i) for i in range(1, 300)] + [(i, (i + 1) % 300) for i in range(300)]
    got = _run_cc(ids, pairs)
    assert set(got.values()) == {0}


def test_fuzzy_dedup_duplicate_docs(ray_session):
    # 3 groups of near-identical docs + 2 unique docs
    base = [
        "the quick brown fox jumps over the lazy dog again and again today",
        "pack my box with five dozen liquor jugs before the long trip home",
        "how vexingly quick daft zebras jump over fences in the misty morning",
    ]
    texts, ids = [], []
    k = 0
    for b in base:
        for _ in range(4):  # exact duplicates -> guaranteed candidate pairs
            texts.append(b)
            ids.append(k)
            k += 1
    texts += ["completely unrelated text one two three four five six seven eight",
              "another singleton document with its own distinct vocabulary here now"]
    ids += [k, k + 1]
    ds = ray.data.from_arrow(
        pa.table({"doc_id": pa.array(np.array(ids, np.int64)),
                  "text": pa.array(texts)})
    )
    got = fuzzy_dedup(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # each group of 4 collapses to one component = its min id
    comp = dict(zip(got["doc_id"], got["component"]))
    keep = dict(zip(got["doc_id"], got["keep"]))
    for g in range(3):
        members = list(range(4 * g, 4 * g + 4))
        assert {comp[m] for m in members} == {4 * g}
        assert [keep[m] for m in members] == [1, 0, 0, 0]
    for s in (12, 13):
        assert comp[s] == s and keep[s] == 1
    assert int(got["keep"].sum()) == 5


def test_cc_no_edges_all_isolated(ray_session):
    got = connected_components(
        _edges_ds([]), _nodes_ds(list(range(8)))
    ).to_pandas()
    assert dict(zip(got["doc_id"], got["component"])) == {i: i for i in range(8)}


def test_image_dedup_resolves_phash_groups(ray_session):
    # groups of 4 hashes flip distinct bits of a shared base: every
    # group must collapse to ONE component keyed by its min id
    import ray

    from solaris_ray.stages.components import image_dedup

    M62 = 1 << 62
    e = np.arange(64, dtype=np.int64)
    g = e // 4
    base = ((g * g % M62) * 2654435761 + g * 97 + 12345) % M62
    ph = np.bitwise_xor(base, np.int64(1) << (e % 4) * 7)
    ds = ray.data.from_arrow(
        pa.table({"image_id": pa.array(e), "phash": pa.array(ph)})
    ).repartition(4)
    got = image_dedup(ds).to_pandas().set_index("image_id").sort_index()
    assert (got["component"] == (got.index // 4) * 4).all()
    assert (got["keep"] == (got.index % 4 == 0).astype(int)).all()


def test_cc_stats_out_scale_evidence(ray_session):
    """stats_out fills the O(log)-rounds evidence: rounds, per-round
    edge-row counts, and convergence flag."""
    import ray

    from solaris_ray.stages.components import connected_components

    # chain of 33 nodes: diameter 32, star rounds must converge in
    # O(log) rounds (far fewer than 32)
    a = np.arange(32, dtype=np.int64)
    edges = ray.data.from_arrow(
        pa.table({"doc_a": pa.array(a), "doc_b": pa.array(a + 1)})
    ).repartition(4)
    nodes = ray.data.from_arrow(pa.table({"doc_id": pa.array(np.arange(33, dtype=np.int64))}))
    # default: a graph that fits one block takes the union-find task
    stats = {}
    got = connected_components(edges, nodes, stats_out=stats).to_pandas()
    assert (got["component"] == 0).all()
    assert stats["path"] == "union-find-task"
    assert stats["converged"] is True and stats["rounds"] == 0
    # blocks smaller than the edges force the star rounds: O(log n)
    # convergence, not O(diameter)=32
    stats = {}
    with small_blocks(edges):
        edges = ray.data.from_arrow(
            pa.table({"doc_a": pa.array(a), "doc_b": pa.array(a + 1)})
        ).repartition(4)
        got2 = connected_components(edges, nodes, stats_out=stats).to_pandas()
    assert (got2["component"] == 0).all()
    assert stats["path"] == "star-rounds"
    assert stats["converged"] is True
    assert 1 <= stats["rounds"] <= 10
    assert len(stats["edge_rows"]) == stats["rounds"] + 1
    assert all(isinstance(v, int) for v in stats["edge_rows"])
