"""Tests for stratified sampling and pHash Hamming near-dup pairs."""

from __future__ import annotations

import contextlib
import hashlib
import itertools

import numpy as np
import pyarrow as pa
import pytest

from solaris_ray.stages import dedup, split


def test_stratified_sample_matches_global_rank(ray_session):
    import ray

    n = 500
    ids = np.arange(n, dtype=np.int64)
    groups = np.array(["s%d" % (i % 3) for i in ids], dtype=object)
    tbl = pa.table({"doc_id": pa.array(ids), "source": pa.array(groups.tolist())})
    # split across several blocks to exercise block-local top-k + merge
    ds = ray.data.from_arrow(tbl).repartition(7)
    out = (
        split.stratified_sample(ds, group_col="source", key_col="doc_id", k=5, salt="x")
        .to_pandas()
        .sort_values(["source", "rank"])
    )
    # brute force: global md5 rank per group
    for s in ["s0", "s1", "s2"]:
        members = [int(i) for i in ids if "s%d" % (i % 3) == s]
        ranked = sorted(members, key=lambda i: (hashlib.md5(("x" + str(i)).encode()).hexdigest(), str(i)))
        want = ranked[:5]
        got = out[out.source == s].sort_values("rank").doc_id.tolist()
        assert got == want
    assert (out.groupby("source").size() == 5).all()


def test_stratified_sample_small_group_keeps_all(ray_session):
    import ray

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "source": pa.array(["a", "a", "b"]),
        }
    )
    out = split.stratified_sample(
        ray.data.from_arrow(tbl), group_col="source", key_col="doc_id", k=10
    ).to_pandas()
    assert len(out) == 3  # k larger than any group: everything sampled


def _brute_hamming_pairs(ids, hashes, max_dist):
    out = set()
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = bin(int(hashes[i]) ^ int(hashes[j])).count("1")
            if d <= max_dist:
                a, b = sorted((ids[i], ids[j]))
                out.add((a, b, d))
    return out


def test_hamming_neardup_finds_all_close_pairs(ray_session):
    import ray

    rng = np.random.default_rng(11)
    base = rng.integers(0, 1 << 62, size=30, dtype=np.int64)
    ids, hs = [], []
    for gi, b in enumerate(base):
        for m in range(3):  # three variants, each flipping one distinct bit
            ids.append(gi * 10 + m)
            hs.append(int(b) ^ (1 << (m * 9)))
    ids = np.array(ids, dtype=np.int64)
    hs = np.array(hs, dtype=np.int64)
    ds = ray.data.from_arrow(
        pa.table({"image_id": pa.array(ids), "phash": pa.array(hs)})
    ).repartition(4)
    out = dedup.hamming_neardup_pairs(
        ds, hash_col="phash", id_col="image_id", max_dist=3, n_bands=4
    ).to_pandas()
    got = {(int(a), int(b), int(d)) for a, b, d in zip(out.id_a, out.id_b, out["min(dist)"])}
    want = _brute_hamming_pairs(ids, hs, 3)
    # pigeonhole guarantees recall for dist <= 3 with 4 bands
    assert got == want
    # every planted in-group pair (dist 2) must be present
    for gi in range(len(base)):
        for a in range(3):
            for b in range(a + 1, 3):
                assert (gi * 10 + a, gi * 10 + b, 2) in got


def _capped_hamming_pairs(ids, hashes, max_dist, n_bands, cap):
    """``_brute_hamming_pairs`` over each (band, key) run's ``cap``
    smallest ids."""
    bits, h = 64 // n_bands, dict(zip(ids.tolist(), hashes.tolist()))
    best = {}
    for band in range(n_bands):
        runs = {}
        for i in sorted(h):
            runs.setdefault((h[i] & (2 ** 64 - 1)) >> (bits * band) & ((1 << bits) - 1), []).append(i)
        for a, b in itertools.chain.from_iterable(
                itertools.combinations(r[:cap], 2) for r in runs.values()):
            d = bin((h[a] ^ h[b]) & (2 ** 64 - 1)).count("1")
            if d <= max_dist:
                best[a, b] = d
    return {(a, b, d) for (a, b), d in best.items()}


def test_hamming_neardup_bucket_cap_keeps_smallest_ids(ray_session):
    # 40 hashes share band 0's key, and each is one distinct bit off one
    # base elsewhere: every pair is at distance 2, and every band's run
    # of the base key is over the cap.  Rows arrive out of id order, so
    # the first rows delivered are not the smallest ids
    import ray

    from conftest import small_blocks
    from solaris_ray.stages._buckets import shuffle_width

    rng = np.random.default_rng(17)
    n, cap = 40, 8
    ids = rng.permutation(1000)[:n].astype(np.int64)
    base = int(rng.integers(0, 1 << 47)) << 16 | 0x1234
    hs = np.array([base ^ (1 << (16 + p)) for p in rng.permutation(47)[:n]], np.int64)
    tbl = pa.table({"image_id": ids, "phash": hs})
    want = _capped_hamming_pairs(ids, hs, 3, 4, cap)
    assert want != _brute_hamming_pairs(ids, hs, 3)  # the cap drops pairs
    widths = set()
    for ctx in (contextlib.nullcontext(), small_blocks(ray.data.from_arrow(tbl))):
        with ctx:
            ds = ray.data.from_arrow(tbl)
            widths.add(shuffle_width(ds))
            out = dedup.hamming_neardup_pairs(ds, max_bucket=cap).to_pandas()
        got = {(int(a), int(b), int(d)) for a, b, d in zip(out.id_a, out.id_b, out["min(dist)"])}
        assert got == want
    assert len(widths) == 2


@pytest.mark.parametrize("stage", ["hamming_neardup_pairs", "hamming_topk_banded", "hamming_topk"])
def test_null_hash_is_refused(ray_session, stage):
    # a null phash read as NaN, then 2**63 (or -2**63): two images with
    # no hash came back as an exact duplicate pair, or as a query's
    # nearest items
    import ray

    from solaris_ray.stages.ann import hamming_topk, hamming_topk_banded

    ds = ray.data.from_arrow(pa.table({"image_id": pa.array([1, 2, 3], pa.int64()),
                                       "phash": pa.array([None, None, 12345], pa.int64())}))
    queries = pa.table({"query_id": pa.array([0], pa.int64()), "phash": pa.array([12345], pa.int64())})
    with pytest.raises(Exception, match="ValueError: null in key column 'phash'"):
        if stage == "hamming_neardup_pairs":
            dedup.hamming_neardup_pairs(ds).materialize()
        elif stage == "hamming_topk_banded":
            hamming_topk_banded(ds, ray.data.from_arrow(queries)).materialize()
        else:
            hamming_topk(ds, queries["query_id"].to_numpy(), queries["phash"].to_numpy()).materialize()


def test_hamming_neardup_rejects_bad_banding():
    with pytest.raises(ValueError):
        dedup.hamming_neardup_pairs(None, max_dist=4, n_bands=4)


def test_hamming_topk_exact_vs_bruteforce(ray_session):
    import pyarrow as pa
    import ray

    from solaris_ray.stages.ann import hamming_topk

    rng = np.random.default_rng(3)
    hashes = rng.integers(0, 1 << 62, 800, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({
        "image_id": pa.array(np.arange(800), pa.int64()),
        "phash": pa.array(hashes, pa.int64()),
    }))
    q_ids = np.array([10, 20], np.int64)
    q_hashes = hashes[[7, 42]] ^ np.int64(0b101)
    out = hamming_topk(ds, q_ids, q_hashes, k=4).to_pandas().sort_values(
        ["query_id", "rank"])

    def pc(x):
        return bin(int(x) & (2 ** 64 - 1)).count("1")

    for qid, qh in zip(q_ids, q_hashes):
        d = np.array([pc(h ^ qh) for h in hashes])
        order = np.lexsort((np.arange(800), d))[:4]
        got = out[out.query_id == qid][["item_id", "dist"]].values.tolist()
        assert got == [[int(i), int(d[i])] for i in order]


def test_hamming_topk_banded_matches_broadcast(ray_session):
    import pyarrow as pa
    import ray

    from solaris_ray.stages.ann import hamming_topk, hamming_topk_banded

    rng = np.random.default_rng(5)
    hashes = rng.integers(0, 1 << 62, 1200, dtype=np.int64)
    q_ids = np.arange(5, dtype=np.int64)
    qh = hashes[q_ids * 97].copy()
    for qi in range(5):  # plant 6 close neighbors per query
        for j in range(6):
            nb = int(qh[qi]) ^ (1 << (j * 9)) ^ (
                (1 << (j * 5 + 2)) if j % 2 else 0)
            hashes[900 + qi * 6 + j] = nb
    corpus = ray.data.from_arrow(pa.table({
        "image_id": pa.array(np.arange(1200), pa.int64()),
        "phash": pa.array(hashes, pa.int64())}))
    queries = ray.data.from_arrow(pa.table({
        "query_id": pa.array(q_ids, pa.int64()),
        "phash": pa.array(qh, pa.int64())}))
    banded = hamming_topk_banded(corpus, queries, k=5, radius=3,
                                 n_bands=4).to_pandas().sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    brute = hamming_topk(corpus, q_ids, qh, k=5).to_pandas().sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    cols = ["query_id", "rank", "item_id", "dist"]
    assert banded[cols].astype("int64").equals(brute[cols].astype("int64"))
