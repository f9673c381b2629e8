"""Change-data-capture operators: MERGE (upsert) and SCD type-2.

The reference has no CDC surface (it is a one-shot batch system); these
are the incremental-maintenance ops a production training-data corpus
needs — applying a change feed to a base snapshot, and building
effective-dated dimension history from a status-change event stream.

Both are single bucketed co-shuffles:

- ``merge_changes``: tag base rows with sentinel seq=-1, union with the
  change feed, hash-bucket on key, and resolve last-writer-wins per key
  inside each bucket with one lexsort-segment pass.  At 100 TB the only
  exchange is (key-bucket) over base+changes; no driver materialization.
- ``scd2_intervals``: hash-bucket on entity, per-bucket lexsort by
  (entity, ts, id), collapse consecutive equal statuses into runs
  (gaps-and-islands), and close each interval with the next run's start
  — the classic SCD2 effective_from/effective_to build.

Timestamps are int64 epoch-microseconds (hash-stable); deterministic
tie-break everywhere is the event/row id.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._buckets import co_shuffle

_OP_CODE = {"B": 0, "D": 1, "I": 2, "U": 3}


def merge_changes(base, changes, key_col: str, seq_col: str, op_col: str,
                  payload_cols: list[str]):
    """Apply a change feed to a base table (MERGE / upsert semantics).

    ``changes`` rows carry (key, seq >= 0, op in {'I','U','D'}, payload);
    per key the highest-seq change wins ('I' and 'U' both mean "row
    becomes this payload", 'D' deletes).  Keys without changes keep
    their base payload.  (key, seq) must be unique within the feed —
    duplicate pairs raise, they would make the winner order-dependent.

    Output: key + payload columns, one row per surviving key.
    """

    def _tag_base(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch[key_col], pa.int64())
        cols = {
            key_col: k,
            "seq__": pa.array(np.full(len(batch), -1, np.int64)),
            "op__": pa.array(np.zeros(len(batch), np.int8)),
        }
        for c in payload_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    def _tag_changes(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch[key_col], pa.int64())
        seq = pc.cast(batch[seq_col], pa.int64()).to_numpy(zero_copy_only=False)
        if seq.size and seq.min() < 0:
            raise ValueError("change seq must be >= 0 (seq=-1 is the base sentinel)")
        ops = batch[op_col].to_pylist()
        bad = sorted({o for o in ops if o not in ("I", "U", "D")})
        if bad:
            raise ValueError(
                f"merge_changes: unknown op(s) {bad}; feed ops must be "
                "'I', 'U' or 'D'"
            )
        code = np.array([_OP_CODE[o] for o in ops], np.int8)
        cols = {
            key_col: k,
            "seq__": pa.array(seq, pa.int64()),
            "op__": pa.array(code),
        }
        for c in payload_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    tagged = base.map_batches(_tag_base, batch_format="pyarrow").union(
        changes.map_batches(_tag_changes, batch_format="pyarrow")
    )

    def _resolve(group: pa.Table) -> pa.Table:
        k = group[key_col].to_numpy(zero_copy_only=False)
        seq = group["seq__"].to_numpy(zero_copy_only=False)
        op = group["op__"].to_numpy(zero_copy_only=False)
        if k.size == 0:
            return group.drop_columns(["seq__", "op__"])
        order = np.lexsort((seq, k))
        ks, ss = k[order], seq[order]
        dup = (ks[1:] == ks[:-1]) & (ss[1:] == ss[:-1]) & (ss[1:] >= 0)
        if dup.any():
            raise ValueError("duplicate (key, seq) in change feed")
        # last row per key after (key, seq) sort = winning version
        last = np.r_[ks[1:] != ks[:-1], True]
        win = order[last]
        keep = win[op[win] != _OP_CODE["D"]]
        keep.sort()  # preserve storage order for stable output blocks
        idx = pa.array(keep)
        cols = {key_col: group[key_col].take(idx)}
        for c in payload_cols:
            cols[c] = group[c].take(idx)
        return pa.table(cols)

    return co_shuffle(tagged, key_col, _resolve)


def scd2_intervals(events, entity_col: str = "user_id", ts_col: str = "ts",
                   status_col: str = "event_type", id_col: str = "event_id"):
    """Status-change stream -> SCD type-2 effective-dated history.

    Per entity (ordered by ts, then id), consecutive rows with the same
    status collapse into one interval; each interval closes at the next
    status change (``to_us``) or stays open (``to_us = -1``).

    Output: entity, status, from_us: int64, to_us: int64, n_rows: int64.
    """

    def _project(batch: pa.Table) -> pa.Table:
        ent = pc.cast(batch[entity_col], pa.int64())
        return pa.table(
            {
                "ent__": ent,
                "ts__": pc.cast(batch[ts_col], pa.int64()),
                "id__": pc.cast(batch[id_col], pa.int64()),
                "st__": batch[status_col],
            }
        )

    out_schema = pa.schema(
        [(entity_col, pa.int64()), ("status", pa.string()),
         ("from_us", pa.int64()), ("to_us", pa.int64()),
         ("n_rows", pa.int64())]
    )

    def _runs(group: pa.Table) -> pa.Table:
        ent = group["ent__"].to_numpy(zero_copy_only=False)
        ts = group["ts__"].to_numpy(zero_copy_only=False)
        ids = group["id__"].to_numpy(zero_copy_only=False)
        st = group["st__"].to_numpy(zero_copy_only=False)
        if ent.size == 0:
            return out_schema.empty_table()
        _, code = np.unique(st, return_inverse=True)
        order = np.lexsort((ids, ts, ent))
        ent, ts, code = ent[order], ts[order], code[order]
        st = st[order]
        new_ent = np.r_[True, ent[1:] != ent[:-1]]
        new_run = new_ent | np.r_[True, code[1:] != code[:-1]]
        starts = np.flatnonzero(new_run)
        n_rows = np.diff(np.r_[starts, ent.size])
        from_us = ts[starts]
        run_ent = ent[starts]
        # close each run with the next run's start when same entity
        to_us = np.full(starts.size, -1, np.int64)
        if starts.size > 1:
            same = run_ent[1:] == run_ent[:-1]
            to_us[:-1][same] = from_us[1:][same]
        return pa.table(
            {
                entity_col: pa.array(run_ent, pa.int64()),
                "status": pa.array(st[starts], pa.string()),
                "from_us": pa.array(from_us, pa.int64()),
                "to_us": pa.array(to_us, pa.int64()),
                "n_rows": pa.array(n_rows.astype(np.int64), pa.int64()),
            }
        )

    return co_shuffle(
        events.map_batches(_project, batch_format="pyarrow", batch_size=16384),
        "ent__", _runs)


def scd2_lookup(events, intervals, entity_col: str = "user_id",
                ts_col: str = "ts", id_col: str = "event_id"):
    """Temporal dimension lookup: classify each event by the SCD2
    interval valid at its timestamp (``from_us <= ts < to_us``, open
    intervals via ``to_us = -1``) — the warehouse point-in-validity
    join.

    One entity-bucketed co-shuffle of both sides; per bucket, interval
    starts are binary-searched per entity segment (searchsorted
    ``side='right'`` picks the LAST interval starting at or before the
    event, so boundary events land in the newer interval — the same
    half-open rule the SQL twin's range predicate encodes; zero-length
    degenerate intervals sort first and never match).

    Output: id, entity, ts_us, status.  Events before an entity's
    first interval are dropped (no valid dimension row).
    """

    def _tag_events(batch: pa.Table) -> pa.Table:
        ent = pc.cast(batch[entity_col], pa.int64())
        return pa.table(
            {
                "ent__": ent,
                "t__": pc.cast(batch[ts_col], pa.int64()),
                "id__": pc.cast(batch[id_col], pa.int64()),
                "st__": pa.array([""] * len(batch), pa.string()),
                "kind__": pa.array(np.ones(len(batch), np.int8)),
            }
        )

    def _tag_intervals(batch: pa.Table) -> pa.Table:
        ent = pc.cast(batch[entity_col], pa.int64())
        return pa.table(
            {
                "ent__": ent,
                "t__": pc.cast(batch["from_us"], pa.int64()),
                # carry to_us in id__: only needed to order degenerate
                # same-start intervals (open = -1 sorts as +inf)
                "id__": pc.cast(batch["to_us"], pa.int64()),
                "st__": pc.cast(batch["status"], pa.string()),
                "kind__": pa.array(np.zeros(len(batch), np.int8)),
            }
        )

    tagged = events.map_batches(
        _tag_events, batch_format="pyarrow", batch_size=16384
    ).union(intervals.map_batches(_tag_intervals, batch_format="pyarrow"))

    out_schema = pa.schema(
        [(id_col, pa.int64()), (entity_col, pa.int64()),
         ("ts_us", pa.int64()), ("status", pa.string())]
    )

    def _lookup(group: pa.Table) -> pa.Table:
        kind = group["kind__"].to_numpy(zero_copy_only=False)
        ent = group["ent__"].to_numpy(zero_copy_only=False)
        t = group["t__"].to_numpy(zero_copy_only=False)
        aux = group["id__"].to_numpy(zero_copy_only=False)
        st = group["st__"].to_numpy(zero_copy_only=False)
        is_ev = kind == 1
        if not is_ev.any() or is_ev.all():
            return out_schema.empty_table()
        # one merged order, fully vectorized (no per-entity loop):
        # (entity, t, intervals-before-events, to_inf asc) — the last
        # interval row seen before an event row IS its covering
        # candidate; at equal (ent, t), intervals sort first (>= start
        # semantics) and the widest same-start interval sorts last
        ito_inf = np.where(
            is_ev, 0, np.where(aux == -1, np.iinfo(np.int64).max, aux)
        )
        order = np.lexsort((ito_inf, is_ev, t, ent))
        ent, t, aux, st = ent[order], t[order], aux[order], st[order]
        is_ev = is_ev[order]
        last_iv = np.cumsum(~is_ev) - 1          # ordinal of last interval seen
        ipos = np.flatnonzero(~is_ev)            # sorted interval row positions
        erows = np.flatnonzero(is_ev)
        match = last_iv[erows]
        ok = match >= 0
        erows, match = erows[ok], match[ok]
        gi = ipos[match]
        same = ent[gi] == ent[erows]             # interval of ANOTHER entity = no coverage
        erows, gi = erows[same], gi[same]
        to = aux[gi]
        # half-open end guard: events in a CLOSED interval's gap drop
        # (cannot happen for self-derived intervals, can for external)
        valid = (to == -1) | (t[erows] < to)
        erows, gi = erows[valid], gi[valid]
        return pa.table(
            {
                id_col: pa.array(aux[erows], pa.int64()),
                entity_col: pa.array(ent[erows], pa.int64()),
                "ts_us": pa.array(t[erows], pa.int64()),
                "status": pa.array(st[gi], pa.string()),
            }
        )

    return co_shuffle(tagged, "ent__", _lookup)
