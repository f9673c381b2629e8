"""Bloom-filter semi-join: probe a stream against a compact filter of
a reference key set.

At 100 TB the classic semi-join problem is "keep rows whose key
appears in a reference set too big to hash-join but whose FILTER fits
in memory": the Bloom filter is the standard answer (a few bits per
reference key, broadcast once).  False positives are inherent and
deterministic — the gate oracle reproduces them bit-for-bit because
the hash family is the repo's salted-md5-low-8-LE idiom
(stages/split.py / DuckDB hex expansion), so membership is a pure
function both engines compute identically.

Shapes:
- build: reference keys -> k md5 positions each -> engine-side
  DISTINCT (groupby) -> the driver collects at most ``m`` ints (the
  set bits), sorted and broadcast via ``ray.put``.
- probe: per batch, k vectorized md5 positions per key, hit iff all k
  are set (np.searchsorted membership).  Rows stream; nothing but the
  bit set is materialized.

Exactness option: follow with an exact hash-join on the survivors
(|survivors| ~ |true matches| + FP rate x |stream|) — the two-stage
pattern that makes the exact join's shuffle small.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa

logger = logging.getLogger(__name__)


def _positions(keys, m: int, k: int) -> np.ndarray:
    """(len(keys), k) md5-low-8-LE positions; keys are stringified."""
    out = np.empty((len(keys), k), dtype=np.int64)
    for j, key in enumerate(keys):
        s = str(key)
        for i in range(k):
            d = hashlib.md5((s + "#" + str(i)).encode("utf-8")).digest()
            out[j, i] = int.from_bytes(d[:8], "little") % m
    return out


def build_bloom_positions(ref_ds, key_col: str, m: int = 4096, k: int = 3) -> np.ndarray:
    """Distinct set-bit positions of the reference set (sorted int64).

    Engine-side distinct; the driver receives at most ``m`` ints —
    the filter itself, not the keys.
    """

    def _pos(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        if not keys:
            return pa.table({"p": pa.array([], pa.int64())})
        p = np.unique(_positions(keys, m, k).reshape(-1))
        return pa.table({"p": pa.array(p)})

    distinct = (
        ref_ds.map_batches(_pos, batch_format="pyarrow")
        .groupby("p")
        .count()
        .select_columns(["p"])
    )
    parts = list(distinct.iter_batches(batch_format="pyarrow"))
    tbl = pa.concat_tables(parts) if parts else pa.table({"p": pa.array([], pa.int64())})
    bits = np.sort(tbl["p"].to_numpy().astype(np.int64))
    logger.info("bloom filter: %d/%d bits set (m=%d, k=%d)", len(bits), m, k, m)
    return bits


class _BloomProbe:
    def __init__(self, bits_ref, key_col: str, m: int, k: int):
        import ray

        self.bits = ray.get(bits_ref) if not isinstance(bits_ref, np.ndarray) else bits_ref
        self.key_col, self.m, self.k = key_col, m, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_pylist()
        if not keys:
            return batch
        pos = _positions(keys, self.m, self.k)
        if len(self.bits):
            idx = np.searchsorted(self.bits, pos)
            idx[idx == len(self.bits)] = 0
            hit = (self.bits[idx] == pos).all(axis=1)
        else:
            hit = np.zeros(len(keys), dtype=bool)
        return batch.filter(pa.array(hit))


def bloom_semi_join(
    probe_ds,
    ref_ds,
    key_col: str,
    ref_key_col: str | None = None,
    m: int = 4096,
    k: int = 3,
):
    """Keep probe rows whose key passes the reference Bloom filter
    (true matches + deterministic false positives)."""
    import ray

    from ..runtime import stateful_map

    bits = build_bloom_positions(ref_ds, ref_key_col or key_col, m=m, k=k)
    bits_ref = ray.put(bits)
    return stateful_map(
        probe_ds, _BloomProbe,
        dict(bits_ref=bits_ref, key_col=key_col, m=m, k=k),
        batch_size=8192,
    )
