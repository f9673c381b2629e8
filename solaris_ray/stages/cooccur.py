"""Type co-occurrence with PMI (market-basket association mining).

Which event types happen to the SAME user: distinct (user, type)
pairs expand to unordered type pairs per user, counted globally, and
scored with pointwise mutual information
``PMI(a,b) = ln( (c_ab * n) / (c_a * c_b) )`` over user-presence
counts — the standard association measure for curriculum/feature
mining over behavioural logs.

ONE wide co-shuffle (bucket = user id) computes everything: per-batch
DISTINCT collapse first, then the bucket kernel emits kind-tagged
rows — pair pre-counts, per-type marginal pre-counts, and the
bucket's user count — so the global combine moves at most
|buckets| x (|type-pairs| + |types| + 1) rows.  Marginals broadcast
back in; products stay in int64; the single division + ln is the
identical float expression on both sides, 6-dp rounded.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle

_SEP = "\x01"


def type_cooccurrence(
    events,
    entity_col: str = "user_id",
    type_col: str = "event_type",
):
    """-> one row per unordered type pair co-occurring in >= 1 entity:
    (ta, tb, n_both, n_a, n_b, pmi6), ta < tb lexicographically."""
    import ray

    def _distinct(batch: pa.Table) -> pa.Table:
        u = batch[entity_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ty = batch[type_col].to_numpy(zero_copy_only=False)
        key = np.char.add(np.char.add(u.astype(str), _SEP), ty.astype(str))
        _, idx = np.unique(key, return_index=True)
        return pa.table(
            {
                "u": pa.array(u[idx], pa.int64()),
                "ty": pa.array(ty[idx], pa.string()),
            }
        )

    # kind-tagged bucket output: k=0 pair count ("ta\x01tb", c);
    # k=1 marginal (type, c); k=2 user count ("", c)
    part_schema = pa.schema(
        [("k", pa.int64()), ("key", pa.string()), ("c", pa.int64())]
    )

    def _bucket(group: pa.Table) -> pa.Table:
        u = group["u"].to_numpy(zero_copy_only=False)
        ty = group["ty"].to_numpy(zero_copy_only=False)
        if u.size == 0:
            return part_schema.empty_table()
        # merge batch fragments: global distinct inside the bucket
        key = np.char.add(np.char.add(u.astype(str), _SEP), ty.astype(str))
        _, idx = np.unique(key, return_index=True)
        u, ty = u[idx], ty[idx]
        order = np.lexsort((ty, u))
        u, ty = u[order], ty[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        ends = np.append(starts[1:], u.size)
        pa_list, pb_list = [], []
        for s, e in zip(starts, ends):  # loop over ENTITIES, not rows
            k = e - s
            if k < 2:
                continue
            ii, jj = np.triu_indices(k, 1)
            pa_list.append(ty[s:e][ii])
            pb_list.append(ty[s:e][jj])
        ks, keys, cs = [], [], []
        if pa_list:
            a = np.concatenate(pa_list)
            b = np.concatenate(pb_list)
            pk = np.char.add(np.char.add(a.astype(str), _SEP), b.astype(str))
            uniq, cnt = np.unique(pk, return_counts=True)
            ks.append(np.zeros(uniq.size, np.int64))
            keys.append(uniq)
            cs.append(cnt.astype(np.int64))
        muniq, mcnt = np.unique(ty, return_counts=True)
        ks.append(np.ones(muniq.size, np.int64))
        keys.append(muniq)
        cs.append(mcnt.astype(np.int64))
        ks.append(np.full(1, 2, np.int64))
        keys.append(np.array([""], object))
        cs.append(np.array([starts.size], np.int64))
        return pa.table(
            {
                "k": pa.array(np.concatenate(ks), pa.int64()),
                "key": pa.array(np.concatenate(keys).astype(object), pa.string()),
                "c": pa.array(np.concatenate(cs), pa.int64()),
            }
        )

    combined = (
        co_shuffle(events.map_batches(_distinct, batch_format="pyarrow"), "u", _bucket)
        .groupby(["k", "key"])
        .sum("c")
        .materialize()
    )

    # marginals + user count: tiny (|types| + 1 rows), broadcast
    small = combined.map_batches(
        lambda b: b.filter(pc.greater(b["k"], 0)), batch_format="pyarrow"
    ).take_all()
    marg = {r["key"]: int(r["sum(c)"]) for r in small if r["k"] == 1}
    n_total = sum(int(r["sum(c)"]) for r in small if r["k"] == 2)
    marg_ref = ray.put(marg)

    out_schema = pa.schema(
        [("ta", pa.string()), ("tb", pa.string()), ("n_both", pa.int64()),
         ("n_a", pa.int64()), ("n_b", pa.int64()), ("pmi6", pa.float64())]
    )

    def _final(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["k"], 0))
        if t.num_rows == 0:
            return out_schema.empty_table()
        m = ray.get(marg_ref)
        pk = t["key"].to_numpy(zero_copy_only=False)
        c = t["sum(c)"].to_numpy(zero_copy_only=False).astype(np.int64)
        ta = np.array([x.split(_SEP)[0] for x in pk], object)
        tb = np.array([x.split(_SEP)[1] for x in pk], object)
        na = np.array([m[x] for x in ta], np.int64)
        nb = np.array([m[x] for x in tb], np.int64)
        pmi = np.log((c * n_total) / (na * nb))
        return pa.table(
            {
                "ta": pa.array(ta, pa.string()),
                "tb": pa.array(tb, pa.string()),
                "n_both": pa.array(c, pa.int64()),
                "n_a": pa.array(na, pa.int64()),
                "n_b": pa.array(nb, pa.int64()),
                "pmi6": pa.array(np.round(pmi, 6), pa.float64()),
            }
        )

    return combined.map_batches(_final, batch_format="pyarrow")
