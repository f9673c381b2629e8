"""Match-key equi-join — image<->label file matching semantics.

Reference: ``make_dataset_csv`` matches image files to label files by
a regex-extracted ``match_str`` then inner-merges
(/root/reference/solaris/utils/data.py:100-139); geojson2coco does the
same (/root/reference/solaris/data/coco.py:170-194); SpaceNet chip-id
extraction (/root/reference/solaris/eval/challenges.py:256-284).

Ray mapping: vectorized ``pyarrow.compute.extract_regex`` for the key,
then a broadcast hash join (the right side — the label listing — is
the small side; ``ray.put`` once, expand inside ``map_batches``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def extract_key(batch: pa.Table, col: str, pattern: str, out_col: str = "match_str") -> pa.Table:
    """Add the regex-captured key column (named group 'k')."""
    ex = pc.extract_regex(batch[col], pattern)
    key = pc.struct_field(ex, "k")
    return batch.append_column(out_col, key)


def broadcast_equi_join(left, right: pa.Table, key: str = "match_str",
                        batch_size: int = 8192):
    """Inner equi-join: left Dataset x small right table on ``key``.

    Duplicate right keys fan out (1:N), like pandas inner merge in the
    reference.
    """
    import ray

    from ..runtime import stateful_map

    rk = right[key].to_numpy(zero_copy_only=False)
    order = np.argsort(rk, kind="stable")
    right_sorted = right.take(pa.array(order))
    ref = ray.put(right_sorted)

    class Joiner:
        def __init__(self, ref):
            tbl = ref if isinstance(ref, pa.Table) else ray.get(ref)
            self.keys = tbl[key].to_numpy(zero_copy_only=False)
            self.tbl = tbl.drop_columns([key])

        def __call__(self, batch: pa.Table) -> pa.Table:
            lk = batch[key].to_numpy(zero_copy_only=False)
            lo = np.searchsorted(self.keys, lk, side="left")
            hi = np.searchsorted(self.keys, lk, side="right")
            counts = hi - lo
            l_idx = np.repeat(np.arange(batch.num_rows), counts)
            if len(l_idx) == 0:
                left_part = batch.slice(0, 0)
                right_part = self.tbl.slice(0, 0)
            else:
                r_idx = np.concatenate(
                    [np.arange(a, b) for a, b in zip(lo, hi) if b > a]
                )
                left_part = batch.take(pa.array(l_idx))
                right_part = self.tbl.take(pa.array(r_idx))
            cols = {n: left_part[n] for n in left_part.column_names}
            for n in right_part.column_names:
                cols[f"r_{n}" if n in cols else n] = right_part[n]
            return pa.table(cols)

    return stateful_map(
        left, Joiner, {"ref": ref},
        batch_size=batch_size,
    )


def broadcast_anti_join(left, right: pa.Table, key: str = "match_str",
                        batch_size: int = 8192):
    """Left rows whose key has NO match on the right — the
    label-mismatch dedup of utils/data.py:133-139 (images without
    labels are dropped/reported).  Right side broadcast as a sorted
    key array; membership via searchsorted.  Task mode, not an actor
    pool: the constructor only gets that array, and a pool of one-CPU
    actors cannot start while a one-CPU session runs its input."""
    import ray

    from ..runtime import stateful_map

    rk = np.unique(right[key].to_numpy(zero_copy_only=False))
    ref = ray.put(rk)

    class AntiJoiner:
        def __init__(self, ref):
            self.keys = ref if isinstance(ref, np.ndarray) else ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            lk = batch[key].to_numpy(zero_copy_only=False)
            pos = np.searchsorted(self.keys, lk)
            pos_c = np.clip(pos, 0, max(0, len(self.keys) - 1))
            found = (len(self.keys) > 0) & (self.keys[pos_c] == lk)
            return batch.filter(pa.array(~found))

    return stateful_map(left, AntiJoiner, {"ref": ref}, batch_size=batch_size)
