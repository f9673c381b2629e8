"""Unit tests for text-analysis, dedup, and ANN stages.

Oracle strategy mirrors the repo's convention: slow scalar
re-implementations (pure Python sets / brute force numpy) verify the
vectorized / distributed versions on small deterministic inputs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from solaris_ray.stages import ann, dedup, text

DOCS = pa.table(
    {
        "doc_id": pa.array(list(range(6)), pa.int64()),
        "text": pa.array(
            [
                "the quick brown fox jumps over the lazy dog",
                "the quick brown fox jumps over the lazy cat",
                "der hund und die katze und der vogel",
                "one two",
                "  padded   text  with   gaps  ",
                "le chat est sur la table et le chien est la",
            ]
        ),
    }
)


def test_token_counts_matches_python():
    out = text.token_counts(DOCS)
    expected = [len(t.strip().split()) for t in DOCS["text"].to_pylist()]
    assert out["n_tokens"].to_pylist() == expected


def test_quality_scores_integer_fields():
    out = text.quality_scores(DOCS)
    t0 = DOCS["text"][0].as_py()
    assert out["n_chars"][0].as_py() == len(t0)
    assert out["n_nonspace"][0].as_py() == len(t0.replace(" ", ""))
    row = out.to_pylist()[0]
    assert row["avg_token_len"] == row["n_nonspace"] / row["n_tokens"]


def test_lang_id_picks_stopword_language():
    out = text.lang_id(DOCS)
    preds = dict(zip(out["doc_id"].to_pylist(), out["pred_lang"].to_pylist()))
    assert preds[0] == "en"
    assert preds[2] == "de"
    assert preds[5] == "fr"
    assert preds[3] == "und"  # no stopword hits


def test_md5_fingerprint():
    import hashlib

    out = text.md5_fingerprint(DOCS)
    assert out["fp"][0].as_py() == hashlib.md5(DOCS["text"][0].as_py().encode()).hexdigest()


def test_winnow_deterministic_and_dup_sensitive():
    a = text.winnow_fingerprints(DOCS)
    b = text.winnow_fingerprints(DOCS)
    assert a.equals(b)
    # identical prefix docs share most fingerprints: sanity via n_grams
    assert a["n_grams"][0].as_py() == len(DOCS["text"][0].as_py()) - 4


def test_word_shingles_match_reference_sets():
    sh = dedup.word_shingles(DOCS["text"], 3)
    t0 = DOCS["text"][0].as_py().split()
    expected = {" ".join(t0[i : i + 3]) for i in range(len(t0) - 2)}
    assert set(sh[0].tolist()) == expected
    assert len(sh[3]) == 0  # fewer than 3 tokens -> empty set


def test_minhash_estimates_jaccard():
    mh = dedup.MinHasher(n_perm=128, bands=32)
    sh = dedup.word_shingles(DOCS["text"], 3)
    s0, s1 = mh.signature(sh[0]), mh.signature(sh[1])
    est = (s0 == s1).mean()
    a, b = set(sh[0]), set(sh[1])
    true_j = len(a & b) / len(a | b)
    assert abs(est - true_j) < 0.2


def test_simhash_near_for_near_texts():
    out = dedup.simhash64(DOCS)
    h = out["simhash"].to_pylist()
    d01 = bin(h[0] ^ h[1]).count("1")
    d02 = bin(h[0] ^ h[2]).count("1")
    assert d01 < d02  # near-dup pair closer than unrelated pair


@pytest.fixture(scope="module")
def docs_ds():
    import ray

    return ray.data.from_arrow(DOCS)


def test_exact_dedup_groups(ray_session, docs_ds):
    dup = pa.table(
        {
            "doc_id": pa.array([10, 11], pa.int64()),
            "text": pa.array([DOCS["text"][0].as_py()] * 2),
        }
    )
    import ray

    ds = ray.data.from_arrow(pa.concat_tables([DOCS, dup]))
    out = dedup.exact_dedup(ds).to_pandas().set_index("keep_id")
    assert out.loc[0, "n_dups"] == 3  # doc 0 + the two planted copies
    assert len(out) == 6


def test_jaccard_adjacent_matches_sets(ray_session, docs_ds):
    out = dedup.jaccard_adjacent(docs_ds).to_pandas().set_index("doc_a")
    sh = dedup.word_shingles(DOCS["text"], 3)
    for a in range(5):
        sa, sb = set(sh[a]), set(sh[a + 1])
        assert out.loc[a, "inter"] == len(sa & sb)
        assert out.loc[a, "uni"] == len(sa | sb)


def test_minhash_candidate_pairs_find_planted_dup(ray_session):
    import ray

    near = pa.table(
        {
            "doc_id": pa.array([100], pa.int64()),
            "text": pa.array(["the quick brown fox jumps over the lazy dog today"]),
        }
    )
    ds = ray.data.from_arrow(pa.concat_tables([DOCS, near]))
    pairs = dedup.minhash_candidate_pairs(ds, est_threshold=0.5).to_pandas()
    found = set(map(tuple, pairs[["doc_a", "doc_b"]].values.tolist()))
    assert (0, 100) in found


def _rand_embeddings(n=64, d=16, seed=7):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, d))
    M[1] = M[0] + 0.01 * rng.standard_normal(d)  # planted near-dup
    ids = np.arange(n, dtype=np.int64)
    return pa.table(
        {"vec_id": pa.array(ids), "embedding": pa.array(M.tolist(), pa.list_(pa.float64()))}
    ), ids, M


def test_embedding_neardup_finds_planted_pair(ray_session):
    import ray

    tbl, ids, M = _rand_embeddings()
    ds = ray.data.from_arrow(tbl)
    pairs = dedup.embedding_neardup_pairs(ds, tbl, tau=0.95).to_pandas()
    assert (0, 1) in set(map(tuple, pairs[["id_a", "id_b"]].values.tolist()))


def test_brute_topk_matches_numpy(ray_session):
    import ray

    tbl, ids, M = _rand_embeddings()
    ds = ray.data.from_arrow(tbl)
    q = M[:3]
    out = ann.brute_topk(ds, ids[:3], q, k=5).to_pandas()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    Qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = np.round(Qn @ Mn.T, 6)
    for qi in range(3):
        s = sims[qi].copy()
        s[qi] = -np.inf
        order = np.lexsort((ids, -s))[:5]
        got = out[out.query_id == qi].sort_values("rank")["vec_id"].tolist()
        assert got == ids[order].tolist()


def test_lsh_topk_recall(ray_session):
    import ray

    tbl, ids, M = _rand_embeddings(n=256, d=16)
    ds = ray.data.from_arrow(tbl)
    exact = ann.brute_topk(ds, ids[:5], M[:5], k=5).to_pandas()
    approx = ann.lsh_topk(ray.data.from_arrow(tbl), ids[:5], M[:5], k=5, n_planes=8).to_pandas()
    hits = 0
    for qi in range(5):
        e = set(exact[exact.query_id == qi]["vec_id"])
        a = set(approx[approx.query_id == qi]["vec_id"])
        hits += len(e & a)
    assert hits / 25 >= 0.5  # multi-probe LSH recall sanity floor


def test_lsh_multi_table_recall(ray_session):
    """n_tables=3 recall >= n_tables=1 recall (independent plane sets
    make the candidate-miss probability multiplicative)."""
    import ray

    from solaris_ray.stages import ann

    rng = np.random.default_rng(5)
    dim = 16
    # clustered corpus: true neighbors are genuinely close (pure
    # gaussian noise has no near neighbors for LSH to find)
    centers = rng.normal(size=(100, dim))
    M = np.repeat(centers, 8, axis=0) + 0.15 * rng.normal(size=(800, dim))
    n = len(M)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(M.tolist(), pa.list_(pa.float64())),
        }
    )
    qids = np.arange(5, dtype=np.int64)
    qmat = M[:5]
    truth = ann.brute_topk(ray.data.from_arrow(tbl), qids, qmat, k=5).to_pandas()
    t_set = set(zip(truth["query_id"], truth["vec_id"]))

    def recall(n_tables):
        got = ann.lsh_topk(
            ray.data.from_arrow(tbl), qids, qmat, k=5,
            n_probe_flips=1, n_tables=n_tables,
        ).to_pandas()
        g = set(zip(got["query_id"], got["vec_id"]))
        return len(g & t_set) / len(t_set)

    r1, r3 = recall(1), recall(3)
    assert r3 >= r1
    assert r3 >= 0.8


def test_embedding_neardup_bucketed_recall(ray_session):
    """Both-sides-large near-dup: recall vs the exact broadcast path on
    planted near-duplicate pairs; no false positives below tau."""
    import ray

    rng = np.random.default_rng(11)
    n, dim = 300, 16
    base = rng.normal(size=(n, dim))
    # plant: even ids' +1 neighbor is a near-copy
    for i in range(0, n - 1, 2):
        base[i + 1] = base[i] + 0.05 * rng.normal(size=dim)
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(base.tolist(), pa.list_(pa.float64())),
        }
    )
    exact = dedup.embedding_neardup_pairs(
        ray.data.from_arrow(tbl), tbl, tau=0.9
    ).to_pandas()
    e_set = set(zip(exact["id_a"], exact["id_b"]))
    got = dedup.embedding_neardup_pairs_bucketed(
        ray.data.from_arrow(tbl), tau=0.9, n_planes=8, n_tables=4
    ).to_pandas()
    g_set = set(zip(got["doc_a"], got["doc_b"]))
    # no false positives: every reported pair is a true pair
    assert g_set <= e_set
    # recall on the planted structure
    assert len(g_set & e_set) / max(1, len(e_set)) >= 0.8


def test_ivf_topk_recall(ray_session):
    """IVF recall on clustered vectors; probing more lists never hurts."""
    import ray

    rng = np.random.default_rng(13)
    dim = 16
    centers = rng.normal(size=(50, dim))
    M = np.repeat(centers, 10, axis=0) + 0.1 * rng.normal(size=(500, dim))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(M), dtype=np.int64)),
            "embedding": pa.array(M.tolist(), pa.list_(pa.float64())),
        }
    )
    qids = np.arange(5, dtype=np.int64)
    truth = ann.brute_topk(ray.data.from_arrow(tbl), qids, M[:5], k=5).to_pandas()
    t_set = set(zip(truth["query_id"], truth["vec_id"]))

    def recall(nprobe):
        got = ann.ivf_topk(
            ray.data.from_arrow(tbl), qids, M[:5], k=5,
            n_lists=16, nprobe=nprobe, sample_size=500,
        ).to_pandas()
        return len(set(zip(got["query_id"], got["vec_id"])) & t_set) / len(t_set)

    r2, r8 = recall(2), recall(8)
    assert r8 >= r2
    assert r8 >= 0.8


def test_embedding_neardup_bucketed_mass_duplicates_bounded(ray_session):
    """VERDICT r2 #1: 10k identical vectors must NOT build an O(k^2)
    clique in one LSH bucket.  The exact-duplicate pre-collapse turns
    the class into star pairs (rep -> member, sim=1.0) and the bucket
    emitter is capped, so the run completes with linear output."""
    import ray

    rng = np.random.default_rng(7)
    k, dim = 10_000, 16
    v = rng.normal(size=dim)
    M = np.tile(v, (k, 1))
    M[-3:] = rng.normal(size=(3, dim))  # a few distinct rows too
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(k, dtype=np.int64)),
            "embedding": pa.array(M.tolist(), pa.list_(pa.float64())),
        }
    )
    got = dedup.embedding_neardup_pairs_bucketed(
        ray.data.from_arrow(tbl), tau=0.99, n_planes=8, n_tables=2,
        max_bucket=64,
    ).to_pandas()
    dup = got[got["doc_a"] == 0]
    # star pairs: representative (min id 0) linked to every duplicate
    assert set(dup["doc_b"]) == set(range(1, k - 3))
    assert (dup["max(sim6)"] == 1.0).all()
    # linear, not quadratic: no clique among the duplicate class
    assert len(got) < 2 * k


def test_embedding_neardup_bucket_cap_logged(ray_session):
    """An oversize bucket of DISTINCT near-identical vectors keeps its
    max_bucket smallest ids (with a warning, logged in the worker)
    instead of emitting O(m^2) pairs, at two shuffle widths."""
    import contextlib

    import ray

    from conftest import small_blocks
    from solaris_ray.stages._buckets import shuffle_width

    rng = np.random.default_rng(9)
    n, dim, cap = 200, 16, 32
    v = rng.normal(size=dim)
    M = v + 1e-6 * rng.normal(size=(n, dim))  # distinct bits, same bucket
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(M.tolist(), pa.list_(pa.float64())),
        }
    )
    Vn = M / np.linalg.norm(M, axis=1, keepdims=True)
    assert len(set(ann.lsh_code(Vn, ann.hyperplanes(dim, 4, 42)).tolist())) == 1
    # brute-force recount over the cap's smallest ids of the one bucket
    S = np.round(Vn[:cap] @ Vn[:cap].T, 6)
    ia, ib = np.triu_indices(cap, k=1)
    keep = S[ia, ib] >= 0.5
    want = sorted(zip(ia[keep].tolist(), ib[keep].tolist(), S[ia, ib][keep].tolist()))
    assert len(want) == cap * (cap - 1) // 2
    widths = set()
    for ctx in (contextlib.nullcontext(), small_blocks(ray.data.from_arrow(tbl))):
        with ctx:
            ds = ray.data.from_arrow(tbl)
            widths.add(shuffle_width(ds))
            got = dedup.embedding_neardup_pairs_bucketed(
                ds, tau=0.5, n_planes=4, n_tables=1, max_bucket=cap,
            ).to_pandas()
        assert sorted(zip(got.doc_a, got.doc_b, got["max(sim6)"])) == want
    assert len(widths) == 2


def test_embed_neardup_lsh_gate_finishes_on_four_cpus(ray_session):
    # with collapse_exact, one execution unions the star pairs'
    # co_shuffle with the LSH pairs' co_shuffle ahead of
    # distinct_reduce: two sorted branches under one union, the shape
    # that stalled a 4-CPU session on a 1-core box in connected_components
    from conftest import SF_DIR, gate_rows_on_one_cpu
    from solaris_ray.pipelines import queries

    want = queries.q_embed_neardup_lsh(SF_DIR).count()
    assert gate_rows_on_one_cpu("q_embed_neardup_lsh", num_cpus=4) == want


@pytest.mark.parametrize("stage", [dedup.exact_dedup, dedup.jaccard_adjacent,
                                   dedup.minhash_candidate_pairs], ids=lambda f: f.__name__)
def test_null_text_is_refused(ray_session, stage):
    # a null text raised a bare AttributeError (md5) or TypeError (shingles)
    import ray

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["a b c d", None, "a b c e"])})
    with pytest.raises(Exception, match="ValueError: null in text column 'text'"):
        stage(ray.data.from_arrow(t)).materialize()


def test_ivf_hash_sample_beats_head_sample_on_clustered_order(ray_session):
    """VERDICT r2 #2: with a storage-order-clustered corpus (sorted by
    cluster id) a head sample trains centroids only on the first
    clusters — recall collapses for tail queries; the deterministic
    hash sample covers the whole corpus."""
    import ray

    rng = np.random.default_rng(21)
    dim, n_clusters, per = 16, 40, 25
    centers = rng.normal(size=(n_clusters, dim)) * 1.5
    # STORAGE-ORDER CLUSTERED: rows sorted by cluster; broad clusters so
    # members straddle list boundaries under mis-placed centroids
    M = np.repeat(centers, per, axis=0) + 0.6 * rng.normal(size=(n_clusters * per, dim))
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(M), dtype=np.int64)),
            "embedding": pa.array(M.tolist(), pa.list_(pa.float64())),
        }
    )
    # queries drawn from the TAIL clusters only
    qidx = np.arange(len(M) - 5 * per, len(M), per)
    qids = qidx.astype(np.int64)
    qmat = M[qidx]
    ds = lambda: ray.data.from_arrow(tbl).repartition(10)
    truth = ann.brute_topk(ds(), qids, qmat, k=5).to_pandas()
    t_set = set(zip(truth["query_id"], truth["vec_id"]))

    def recall(mode):
        got = ann.ivf_topk(
            ds(), qids, qmat, k=5, n_lists=16, nprobe=1,
            sample_size=100, sample_mode=mode,
        ).to_pandas()
        return len(set(zip(got["query_id"], got["vec_id"])) & t_set) / len(t_set)

    r_head, r_hash = recall("head"), recall("hash")
    assert r_hash >= 0.8
    assert r_hash > r_head


def test_split_sentences_vectorized():
    import pyarrow as pa

    from solaris_ray.stages.text import split_sentences

    t = pa.table({
        "doc_id": pa.array([7, 8, 9], pa.int64()),
        "text": pa.array(["a b. c d. e", "single", ""]),
    })
    out = split_sentences(t).to_pandas()
    assert list(out["doc_id"]) == [7, 7, 7, 8, 9]
    assert list(out["sent_idx"]) == [0, 1, 2, 0, 0]
    assert list(out["sentence"]) == ["a b", "c d", "e", "single", ""]
    assert list(out["n_chars"]) == [3, 3, 1, 6, 0]
