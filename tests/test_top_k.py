"""_buckets.top_k against a brute-force per-key sort."""

import contextlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import small_blocks
from solaris_ray.stages._buckets import shuffle_width, top_k

# two strings with one crc32 (1306201125): one bucket, two keys
_CRC_TWINS = ["plumless", "buckeroo"]

_KEYS = {
    "int": (st.integers(-3, 3), pa.int64()),
    "float": (st.sampled_from([-0.0, 0.0, 1.5, -2.25, 1e300]), pa.float64()),
    "string": (st.sampled_from([*_CRC_TWINS, "", "a", "é"]), pa.string()),
}
# few distinct values, so ties on the order columns are common
_ORDER_COLS = {
    "f": (st.sampled_from([-0.0, 0.0, 1.0, -1.0]), pa.float64()),
    "i": (st.integers(0, 2), pa.int64()),
    "s": (st.sampled_from(["", "a", "ab", "b"]), pa.string()),
}


def _reference(rows: list[dict], order: list, k: int) -> list[dict]:
    """Per key (-0.0 and +0.0 are one key, as dict keys), a stable sort
    on each order column from last to first, then the first k rows."""
    groups: dict = {}
    for r in rows:
        groups.setdefault(r["key"], []).append(r)
    out = []
    for rs in groups.values():
        for col, how in reversed(order):
            rs = sorted(rs, key=lambda r: r[col], reverse=how == "descending")
        out += [{**r, "rank": i + 1} for i, r in enumerate(rs[:k])]
    return out


@st.composite
def _cases(draw):
    key_kind = draw(st.sampled_from(sorted(_KEYS)))
    n = draw(st.integers(1, 40))
    key_st, key_type = _KEYS[key_kind]
    cols = {"key": pa.array(draw(st.lists(key_st, min_size=n, max_size=n)), key_type)}
    for c, (value_st, t) in _ORDER_COLS.items():
        cols[c] = pa.array(draw(st.lists(value_st, min_size=n, max_size=n)), t)
    cols["id"] = pa.array(np.arange(n), pa.int64())
    order_cols = draw(st.permutations(sorted(_ORDER_COLS)))[:draw(st.integers(0, 3))]
    order = [(c, draw(st.sampled_from(["ascending", "descending"]))) for c in order_cols]
    if draw(st.booleans()):
        order.append(("id", draw(st.sampled_from(["ascending", "descending"]))))
    k = draw(st.sampled_from([1, 2, 3, 50]))  # 50: more than any group holds
    blocks = draw(st.sampled_from([1, 7]))
    return pa.table(cols), order, k, blocks


def _ds(tbl: pa.Table, blocks: int):
    import ray.data

    cuts = np.linspace(0, tbl.num_rows, blocks + 1).astype(int)
    return ray.data.from_arrow([tbl.slice(s, e - s) for s, e in zip(cuts[:-1], cuts[1:])])


def _table(ds) -> pa.Table:
    """The rows of ``ds``: its blocks that have columns, concatenated."""
    import ray

    return pa.concat_tables([b for b in ray.get(ds.to_arrow_refs()) if b.num_columns])


def test_block_bytes_give_two_shuffle_widths(ray_session):
    tbl = pa.table({"key": np.arange(14)})
    narrow = _ds(tbl, 1)
    with small_blocks(narrow):
        assert shuffle_width(narrow) != shuffle_width(_ds(tbl, 7))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_cases())
def test_top_k_matches_per_key_sort(ray_session, case):
    tbl, order, k, blocks = case
    # seven blocks also shuffle wider than the session's CPUs
    with small_blocks(_ds(tbl, 1)) if blocks > 1 else contextlib.nullcontext():
        got = _table(top_k(_ds(tbl, blocks), "key", order, k))
    assert got.column_names == [*tbl.column_names, "rank"]
    assert got.schema.field("rank").type == pa.int64()
    assert got.schema.remove(len(tbl.column_names)) == tbl.schema
    want = _reference(tbl.to_pylist(), order, k)
    # equal on the key, the rank and every order column; rows tied on all
    # of those may come in either order, so the id is compared only when
    # it is in the order
    cols = ["key", "rank", *(c for c, _ in order)]

    def canon(rows):  # -0.0 ties +0.0 in both sorts: compare them as one value
        return sorted(tuple(r[c] + 0.0 if isinstance(r[c], float) else r[c] for c in cols)
                      for r in rows)

    assert len(got) == len(want)
    assert canon(got.to_pylist()) == canon(want)
    # and every row is an input row
    by_id = {r["id"]: r for r in tbl.to_pylist()}
    for r in got.to_pylist():
        assert {c: r[c] for c in tbl.column_names} == by_id[r["id"]]


def test_float_zeros_are_one_key(ray_session):
    tbl = pa.table({"key": [-0.0, 0.0, 0.0, -0.0], "v": [4, 3, 2, 1]})
    got = top_k(_ds(tbl, 2), "key", [("v", "ascending")], 2).to_pandas()
    assert got.v.tolist() == [1, 2] and got["rank"].tolist() == [1, 2]


def test_crc_twins_are_two_keys(ray_session):
    tbl = pa.table({"key": _CRC_TWINS * 3, "v": [1, 2, 3, 4, 5, 6]})
    got = top_k(_ds(tbl, 1), "key", [("v", "descending")], 1).to_pandas()
    assert dict(zip(got.key, got.v)) == {"plumless": 5, "buckeroo": 6}


@pytest.mark.parametrize("bad", ["null", "NaN"])
def test_refuses_null_and_nan_keys(ray_session, bad):
    key = pa.array([1.0, None if bad == "null" else float("nan"), 2.0])
    with pytest.raises(Exception, match=f"ValueError: {bad} in key column 'key'"):
        top_k(_ds(pa.table({"key": key, "v": [1, 2, 3]}), 1), "key", [], 1).materialize()
