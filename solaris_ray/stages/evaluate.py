"""Proposal-vs-ground-truth evaluation — Solaris eval.base re-expressed
as bucketed Ray Data stages.

Reference semantics (/root/reference/solaris/eval/base.py):

- greedy 1:1 matching per image: proposals sorted conf-desc (ties by
  input order — base.py:532-533), each takes its max-IoU ground truth
  if IoU > miniou and removes it from the pool (base.py:123-153).
- per-image TP/FP/FN -> precision/recall/F1 (base.py:157-206).
- challenge roll-up: groupby(AOI).sum() then RECOMPUTE P/R/F1 from the
  summed counts — never mean-of-F1s (challenges.py:62-87).
- mAP: per-class conf-desc scan, 101-point interpolated AP
  (eval/vector.py:400-513).
- pixel scores: mask-pair TP/FP/FN counts -> global ratios
  (eval/pixel.py:8-201).

Distribution: images (or image x class) are independent; matching is
sequential only *within* an image (SURVEY.md §2.4).  ``eval_scores``
and ``eval_matches`` are one ``_buckets.co_shuffle`` of the unioned
sides on ``image_id`` with one bucket kernel, ``_match_bucket``: it
sorts the bucket by (image_id, side), pairs each image's proposal and
GT rows whose boxes share area, scores every pair of the bucket in one
``pair_overlaps`` call, and runs ``_greedy_match`` per image on that
image's IoU rows in the pinned order (-conf, proposal_id).
``greedy_match_group`` is the same matcher for one image's rings.
mAP (keyed on class) and SCOT (keyed on AOI) are ``co_shuffle`` with a
``per_key`` kernel.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..geom.assign import linear_sum_assignment
from ..geom.poly import iou_matrix, pack_rings, pair_box_iou, pair_overlaps, ring_bboxes
from ..raster import codec
from ..raster.kernels import dilate_square
from ._buckets import co_shuffle, per_key

SCORE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("tp", pa.int64()),
        ("fp", pa.int64()),
        ("fn", pa.int64()),
        ("precision", pa.float64()),
        ("recall", pa.float64()),
        ("f1", pa.float64()),
    ]
)

MATCH_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("proposal_id", pa.int64()),
        ("conf", pa.float64()),
        ("matched_feature_id", pa.int64()),
        ("iou", pa.float64()),
        ("is_tp", pa.int8()),
    ]
)


def greedy_match_group(
    prop_ids: np.ndarray,
    prop_conf: np.ndarray,
    prop_rings: list[np.ndarray],
    gt_ids: np.ndarray,
    gt_rings: list[np.ndarray],
    miniou: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The eval_iou kernel for one image group.

    Returns (matched_gt_id_or_-1, iou, is_tp) aligned to the input
    proposals; matching runs in the pinned order (-conf, proposal_id).
    """
    iou = iou_matrix(*pack_rings(prop_rings), *pack_rings(gt_rings))
    return _greedy_match(prop_ids, prop_conf, iou, gt_ids, miniou)


def _greedy_match(prop_ids, prop_conf, iou, gt_ids, miniou):
    """Greedy 1:1 matching over a precomputed (proposal x GT) IoU
    matrix: proposals in (-conf, proposal_id) order each take their
    max-IoU live GT (ties by GT order, the idxmax of base.py:132-134)
    and remove it from the pool when the IoU exceeds ``miniou``."""
    order = np.lexsort((prop_ids, -prop_conf))
    n = len(order)
    matched = np.full(n, -1, dtype=np.int64)
    ious = np.zeros(n, dtype=np.float64)
    is_tp = np.zeros(n, dtype=np.int8)
    alive = np.ones(len(gt_ids), dtype=bool)
    for oi, pi in enumerate(order.tolist()):
        row = iou[pi]
        best_iou, best_j = 0.0, -1
        for j in np.flatnonzero(alive & (row > 0)).tolist():
            if row[j] > best_iou + 1e-15:
                best_iou, best_j = float(row[j]), j
        if best_j >= 0 and best_iou > miniou:
            alive[best_j] = False
            matched[oi] = gt_ids[best_j]
            ious[oi] = best_iou
            is_tp[oi] = 1
        elif best_j >= 0:
            ious[oi] = best_iou
    inv = np.argsort(order)
    return matched[inv], ious[inv], is_tp[inv]


def _pad_eval_side(batch: pa.Table, side: int) -> pa.Table:
    n = batch.num_rows
    if side == 0:  # proposals
        return pa.table(
            {
                "image_id": batch["image_id"],
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "pid": batch["proposal_id"],
                "conf": batch["conf"],
                "xs": batch["xs"],
                "ys": batch["ys"],
            }
        )
    return pa.table(
        {
            "image_id": batch["image_id"],
            "side": pa.array(np.ones(n, dtype=np.int8)),
            "pid": batch["feature_id"],
            "conf": pa.nulls(n, pa.float64()),
            "xs": batch["xs"],
            "ys": batch["ys"],
        }
    )


def _packed(tbl: pa.Table, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Packed (coords, offsets) rings of ``rows``, straight from the
    xs/ys list columns."""
    xs = tbl["xs"].take(rows).combine_chunks()
    ys = tbl["ys"].take(rows).combine_chunks()
    offsets = xs.offsets.to_numpy().astype(np.int64)
    coords = np.stack(
        [xs.flatten().to_numpy(zero_copy_only=False), ys.flatten().to_numpy(zero_copy_only=False)],
        axis=1,
    )
    return coords.astype(np.float64, copy=False), offsets - offsets[0]


def _prf(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray):
    """Precision, recall and F1 of count arrays; 0 where undefined."""
    tp, fp, fn = (np.asarray(v, np.float64) for v in (tp, fp, fn))
    with np.errstate(divide="ignore", invalid="ignore"):
        prec = np.where(tp + fp > 0, tp / (tp + fp), 0.0)
        rec = np.where(tp + fn > 0, tp / (tp + fn), 0.0)
        f1 = np.where(prec + rec > 0, 2 * prec * rec / (prec + rec), 0.0)
    return prec, rec, f1


def _match_bucket(bucket: pa.Table, miniou: float) -> tuple[pa.Table, pa.Table]:
    """The eval bucket kernel: every image of a ``_pad_eval_side``
    bucket matched at once -> (MATCH_SCHEMA rows, one per proposal;
    SCORE_SCHEMA rows, one per image on either side).

    A stable sort by (image_id, side) keeps each side's input order
    inside an image.  Each image's (proposal, GT) pairs are laid out
    proposal-major, so image i owns one contiguous (n_p[i], n_g[i])
    block of ``iou``; the pairs whose boxes share area are scored in
    one ``pair_overlaps`` call, the rest stay 0."""
    bucket = bucket.take(pc.sort_indices(bucket, [("image_id", "ascending"),
                                                  ("side", "ascending")]))
    ids = bucket["image_id"].combine_chunks()
    new = np.ones(len(ids), bool)
    new[1:] = pc.not_equal(ids[1:], ids[:-1]).to_numpy(zero_copy_only=False)
    img = np.cumsum(new) - 1
    side = bucket["side"].to_numpy(zero_copy_only=False)
    prows, grows = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
    n_p = np.bincount(img[prows], minlength=img[-1] + 1)
    n_g = np.bincount(img[grows], minlength=img[-1] + 1)
    p_at, g_at, pair_at = (np.cumsum(c) - c for c in (n_p, n_g, n_p * n_g))

    # proposal j's pairs: (j, each GT of its image in order), contiguous
    per_p = n_g[img[prows]]
    first = np.cumsum(per_p) - per_p
    ia = np.repeat(np.arange(len(prows)), per_p)
    ib = np.arange(len(ia)) - np.repeat(first - g_at[img[prows]], per_p)
    iou = np.zeros(len(ia))
    if len(ia):
        a, b = _packed(bucket, prows), _packed(bucket, grows)
        hit = np.flatnonzero(pair_box_iou(ring_bboxes(*a)[ia], ring_bboxes(*b)[ib]) > 0)
        iou[hit] = pair_overlaps(*a, *b, ia[hit], ib[hit])[1]

    pid = bucket["pid"].to_numpy(zero_copy_only=False).astype(np.int64)
    conf = bucket["conf"].to_numpy(zero_copy_only=False).astype(np.float64)[prows]
    pid, gid = pid[prows], pid[grows]
    matched = np.full(len(prows), -1, np.int64)
    ious = np.zeros(len(prows))
    is_tp = np.zeros(len(prows), np.int8)
    for i in np.flatnonzero(n_p * n_g).tolist():
        ps, gs = slice(p_at[i], p_at[i] + n_p[i]), slice(g_at[i], g_at[i] + n_g[i])
        rows = iou[pair_at[i]:pair_at[i] + n_p[i] * n_g[i]].reshape(n_p[i], n_g[i])
        matched[ps], ious[ps], is_tp[ps] = _greedy_match(pid[ps], conf[ps], rows, gid[gs], miniou)

    image_id = ids.cast(pa.string())
    matches = pa.table([image_id.take(prows), pid, conf, matched, ious, is_tp],
                       schema=MATCH_SCHEMA)
    tp = np.bincount(img[prows], weights=is_tp, minlength=len(n_p)).astype(np.int64)
    fp, fn = n_p - tp, n_g - tp
    scores = pa.table([image_id.filter(pa.array(new)), tp, fp, fn, *_prf(tp, fp, fn)],
                      schema=SCORE_SCHEMA)
    return matches, scores


def eval_scores(proposals, ground_truth, miniou: float = 0.5, by_class: bool = False):
    """proposals x GT Datasets -> per-image TP/FP/FN/P/R/F1 rows.

    Both sides are tagged, unioned and co-shuffled by image_id (the
    eval shuffle of SURVEY.md §7.3); ``_match_bucket`` matches every
    image of a bucket in one call.  Images present on only one side
    still score (fp-only / fn-only), matching the GT ∪ proposals
    id-union of base.py:97-102.

    ``by_class=True`` keys the groups by (image_id, class) — the
    class-aware matching of eval/vector.py:160-180 (a proposal can only
    match same-class ground truth); output rows then carry the
    composite "image_id|class" key.
    """

    def _with_key(b: pa.Table, side: int) -> pa.Table:
        t = _pad_eval_side(b, side)
        if by_class:
            key = pc.binary_join_element_wise(b["image_id"], b["class"], "|")
            t = t.set_column(t.schema.get_field_index("image_id"), "image_id", key)
        return t

    p = proposals.map_batches(lambda b: _with_key(b, 0), batch_format="pyarrow")
    g = ground_truth.map_batches(lambda b: _with_key(b, 1), batch_format="pyarrow")
    return co_shuffle(p.union(g), "image_id", lambda b: _match_bucket(b, miniou)[1])


def eval_matches(proposals, ground_truth, miniou: float = 0.5):
    """Per-proposal match detail (matched GT id, IoU, is_tp)."""
    p = proposals.map_batches(lambda b: _pad_eval_side(b, 0), batch_format="pyarrow")
    g = ground_truth.map_batches(lambda b: _pad_eval_side(b, 1), batch_format="pyarrow")
    return co_shuffle(p.union(g), "image_id", lambda b: _match_bucket(b, miniou)[0])


def rollup_scores(scores, key_fn=None, key_col: str = "aoi"):
    """Sum counts per roll-up key, then RECOMPUTE P/R/F1
    (challenges.py:62-87 — the not-mean-of-F1s rule)."""
    from ray.data.aggregate import Sum

    def _key(batch: pa.Table) -> pa.Table:
        if key_fn is not None:
            keys = pa.array([key_fn(v) for v in batch["image_id"].to_pylist()], pa.string())
            batch = batch.append_column(key_col, keys)
        return batch.select([key_col, "tp", "fp", "fn"])

    summed = (
        scores.map_batches(_key, batch_format="pyarrow")
        .groupby(key_col)
        .aggregate(Sum("tp"), Sum("fp"), Sum("fn"))
    )

    def _final(b: pa.Table) -> pa.Table:
        tp, fp, fn = (b[f"sum({c})"].to_numpy().astype(np.int64) for c in ("tp", "fp", "fn"))
        prec, rec, f1 = _prf(tp, fp, fn)
        return pa.table({key_col: b[key_col], "tp": tp, "fp": fp, "fn": fn,
                         "precision": prec, "recall": rec, "f1": f1})

    return summed.map_batches(_final, batch_format="pyarrow")


def average_precision_101(is_tp: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP over a conf-desc ordered TP flag array
    (eval/vector.py:473-513)."""
    if n_gt == 0 or len(is_tp) == 0:
        return 0.0
    cum_tp = np.cumsum(is_tp)
    cum_fp = np.cumsum(1 - is_tp)
    recall = cum_tp / n_gt
    precision = cum_tp / (cum_tp + cum_fp)
    ap = 0.0
    # r = k/100 computed by correctly-rounded division (NOT linspace,
    # whose k*0.01 products can be 1 ulp off the k/100 value a SQL
    # oracle computes, flipping recall >= r at exact boundaries)
    for r in (np.arange(101) / 100.0).tolist():
        mask = recall >= r
        ap += precision[mask].max() if mask.any() else 0.0
    return ap / 101.0


def mean_average_precision(matches, gt_counts: dict[str, int], class_of_image=None):
    """mAP from eval_matches output (eval/vector.py:400-513).

    AP is defined over CONF-DESCENDING proposal order (vector.py:473-474),
    ties broken by proposal_id ascending; ``conf`` is carried through
    MATCH_SCHEMA for exactly this.  Per-class AP runs distributed
    (``co_shuffle`` on ``klass``, one ``per_key`` call per class); only
    the tiny per-class AP table reaches the driver for the final mean.
    """

    def _tag(batch: pa.Table) -> pa.Table:
        if class_of_image is None:
            klass = pa.array(["all"] * batch.num_rows, pa.string())
        else:
            klass = pa.array(
                [class_of_image(v) if callable(class_of_image) else class_of_image[v]
                 for v in batch["image_id"].to_pylist()],
                pa.string(),
            )
        return batch.append_column("klass", klass)

    def _ap_group(group: pa.Table) -> pa.Table:
        k = group["klass"][0].as_py()
        conf = group["conf"].to_numpy(zero_copy_only=False).astype(np.float64)
        pid = group["proposal_id"].to_numpy()
        order = np.lexsort((pid, -conf))
        ap = average_precision_101(
            group["is_tp"].to_numpy(zero_copy_only=False)[order], gt_counts.get(k, 0)
        )
        return pa.table({"klass": pa.array([k], pa.string()), "ap": pa.array([ap], pa.float64())})

    tagged = matches.map_batches(_tag, batch_format="pyarrow")
    per_class = co_shuffle(tagged, "klass", per_key("klass", _ap_group)).to_pandas()
    aps = dict(zip(per_class["klass"], per_class["ap"]))
    return float(np.mean(list(aps.values()))), aps


# --- SCOT: multi-temporal optimal matching (eval/scot.py) ----------------

SCOT_SCHEMA = pa.schema(
    [
        ("aoi", pa.string()),
        ("tp", pa.int64()),
        ("fp", pa.int64()),
        ("fn", pa.int64()),
        ("mismatches", pa.int64()),
        ("precision", pa.float64()),
        ("recall", pa.float64()),
        ("f1", pa.float64()),
        ("tracking_score", pa.float64()),
    ]
)


def scot_group(group: pa.Table, miniou: float = 0.25) -> pa.Table:
    """One AOI's multi-temporal rows -> SCOT-style scores.

    Reference semantics (/root/reference/solaris/eval/scot.py:74-194):
    per timestep, an OPTIMAL (Hungarian) IoU assignment between
    proposals and ground truth (scipy.linear_sum_assignment there, the
    pure-numpy geom.assign solver here); matches with IoU > miniou are
    TPs; a ground-truth building matched to a DIFFERENT proposal track
    than in an earlier timestep counts as a tracking mismatch.  The
    timestep loop is sequential *within* the AOI group — AOIs are the
    parallel unit (``co_shuffle`` on aoi, SURVEY.md §2.4).
    """
    side = group["side"].to_numpy()
    ts_all = group["timestep"].to_numpy(zero_copy_only=False)
    aoi = group["aoi"][0].as_py()
    tp = fp = fn = mism = 0
    gt_total = 0
    gt_track: dict[int, int] = {}  # gt_id -> proposal track id seen last
    for ts in sorted(set(ts_all.tolist())):
        rows = np.nonzero(ts_all == ts)[0]
        prows = rows[side[rows] == 0]
        grows = rows[side[rows] == 1]
        gt_total += len(grows)
        if len(prows) == 0:
            fn += len(grows)
            continue
        if len(grows) == 0:
            fp += len(prows)
            continue
        iou = iou_matrix(*_packed(group, prows), *_packed(group, grows))
        ri, ci = linear_sum_assignment(iou, maximize=True)
        matched = iou[ri, ci] > miniou
        t = int(matched.sum())
        tp += t
        fp += len(prows) - t
        fn += len(grows) - t
        pids = group["pid"].to_numpy(zero_copy_only=False)
        for i, j, ok in zip(ri.tolist(), ci.tolist(), matched.tolist()):
            if not ok:
                continue
            gt_id = int(pids[grows[j]])
            track = int(pids[prows[i]])
            if gt_id in gt_track and gt_track[gt_id] != track:
                mism += 1
            gt_track[gt_id] = track
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
    tracking = max(0.0, 1.0 - (fp + fn + 2 * mism) / gt_total) if gt_total else 0.0
    return pa.table(
        {
            "aoi": pa.array([aoi], pa.string()),
            "tp": pa.array([tp], pa.int64()),
            "fp": pa.array([fp], pa.int64()),
            "fn": pa.array([fn], pa.int64()),
            "mismatches": pa.array([mism], pa.int64()),
            "precision": pa.array([prec], pa.float64()),
            "recall": pa.array([rec], pa.float64()),
            "f1": pa.array([f1], pa.float64()),
            "tracking_score": pa.array([tracking], pa.float64()),
        }
    )


def _pad_scot_side(batch: pa.Table, side: int) -> pa.Table:
    n = batch.num_rows
    id_col = "track_id" if side == 0 else "gt_id"
    return pa.table(
        {
            "aoi": batch["aoi"],
            "timestep": batch["timestep"],
            "side": pa.array(np.full(n, side, dtype=np.int8)),
            "pid": pc_cast_i64(batch[id_col]),
            "xs": batch["xs"],
            "ys": batch["ys"],
        }
    )


def pc_cast_i64(arr):
    import pyarrow.compute as pc

    return pc.cast(arr, pa.int64())


def scot_scores(proposals, ground_truth, miniou: float = 0.25):
    """Multi-AOI SCOT: the temporal matcher per AOI, one ``co_shuffle``
    on aoi with a ``per_key`` kernel.

    proposals: (aoi, timestep, track_id, xs, ys); ground_truth:
    (aoi, timestep, gt_id, xs, ys).  Final multi-AOI mean stays on the
    driver (scot.py:197-232 is a mean over AOI scores).
    """
    p = proposals.map_batches(lambda b: _pad_scot_side(b, 0), batch_format="pyarrow")
    g = ground_truth.map_batches(lambda b: _pad_scot_side(b, 1), batch_format="pyarrow")
    return co_shuffle(p.union(g), "aoi", per_key("aoi", lambda grp: scot_group(grp, miniou)))


# --- pixel metrics (eval/pixel.py) ---------------------------------------

def pair_masks(truth_ds, pred_ds, key_col: str = "tile_id",
               truth_col: str = "truth", pred_col: str = "pred"):
    """Pair truth/pred mask Datasets by key WITHOUT driver materialization.

    Tag each side, union, ``co_shuffle`` on the key with a ``per_key``
    kernel, emit one (truth, pred) row per key present on both sides —
    the same grouped pairing the eval matcher uses (replaces a pandas
    merge in the calling process; the masks never leave the object
    store).  Input columns: (key_col, mask).
    """

    def _tag(batch: pa.Table, side: int) -> pa.Table:
        mask_col = [c for c in batch.column_names if c != key_col][0]
        return pa.table(
            {
                key_col: batch[key_col],
                "side": pa.array(np.full(batch.num_rows, side, dtype=np.int8)),
                "mask": batch[mask_col],
            }
        )

    t = truth_ds.map_batches(lambda b: _tag(b, 0), batch_format="pyarrow")
    p = pred_ds.map_batches(lambda b: _tag(b, 1), batch_format="pyarrow")

    empty = pa.schema(
        [(key_col, pa.string()), (truth_col, pa.binary()), (pred_col, pa.binary())]
    ).empty_table()

    def _pair(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy()
        ti = np.nonzero(side == 0)[0]
        pi = np.nonzero(side == 1)[0]
        if len(ti) == 0 or len(pi) == 0:
            return empty
        return pa.table(
            {
                key_col: pa.array([group[key_col][0].as_py()], pa.string()),
                truth_col: pa.array([group["mask"][int(ti[0])].as_py()], pa.binary()),
                pred_col: pa.array([group["mask"][int(pi[0])].as_py()], pa.binary()),
            }
        )

    return co_shuffle(t.union(p), key_col, per_key(key_col, _pair))


def pixel_score_batch(batch: pa.Table, truth_col: str = "truth", pred_col: str = "pred",
                      fmt: str = "png") -> pa.Table:
    """Per-row mask-pair confusion counts (the partial aggregate)."""
    tps, fps, fns, tns = [], [], [], []
    for i in range(batch.num_rows):
        t = codec.decode(batch[truth_col][i].as_py(), fmt) > 0
        p = codec.decode(batch[pred_col][i].as_py(), fmt) > 0
        tps.append(int((t & p).sum()))
        fps.append(int((~t & p).sum()))
        fns.append(int((t & ~p).sum()))
        tns.append(int((~t & ~p).sum()))
    return pa.table(
        {
            "tp": pa.array(tps, pa.int64()),
            "fp": pa.array(fps, pa.int64()),
            "fn": pa.array(fns, pa.int64()),
            "tn": pa.array(tns, pa.int64()),
        }
    )


def pixel_scores(mask_pairs, truth_col: str = "truth", pred_col: str = "pred", fmt: str = "png") -> dict:
    """Dataset of (truth, pred) mask rows -> global pixel IoU/F1
    (partial counts per batch, global Sum, final ratios)."""
    from ray.data.aggregate import Sum

    partial = mask_pairs.map_batches(
        lambda b: pixel_score_batch(b, truth_col, pred_col, fmt),
        batch_format="pyarrow", batch_size=64,
    )
    agg = partial.aggregate(Sum("tp"), Sum("fp"), Sum("fn"), Sum("tn"))
    tp, fp, fn = agg["sum(tp)"], agg["sum(fp)"], agg["sum(fn)"]
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    return {
        "tp": tp, "fp": fp, "fn": fn, "tn": agg["sum(tn)"],
        "precision": prec, "recall": rec,
        "f1": 2 * prec * rec / (prec + rec) if prec + rec else 0.0,
        "iou": tp / (tp + fp + fn) if tp + fp + fn else 0.0,
    }


def relaxed_pixel_scores(mask_pairs, rho: int = 3, truth_col: str = "truth",
                         pred_col: str = "pred", fmt: str = "png") -> dict:
    """Relaxed precision/recall/F1 with a rho-neighborhood
    (eval/pixel.py:215-344): a predicted pixel counts as correct when
    ANY truth pixel lies within rho (and vice versa for recall) — the
    reference's O(HW*rho^2) python loops become one square dilation
    per mask (raster.kernels.dilate_square) + global Sum of counts.
    """
    from ray.data.aggregate import Sum

    k = 2 * rho + 1

    def _partial(batch: pa.Table) -> pa.Table:
        tp_p, n_p, tp_r, n_r = [], [], [], []
        for i in range(batch.num_rows):
            t = (codec.decode(batch[truth_col][i].as_py(), fmt) > 0).astype(np.uint8)
            p = (codec.decode(batch[pred_col][i].as_py(), fmt) > 0).astype(np.uint8)
            t_d = dilate_square(t, k) > 0
            p_d = dilate_square(p, k) > 0
            tp_p.append(int((p.astype(bool) & t_d).sum()))  # pred pixels near truth
            n_p.append(int(p.sum()))
            tp_r.append(int((t.astype(bool) & p_d).sum()))  # truth pixels near pred
            n_r.append(int(t.sum()))
        return pa.table(
            {
                "tp_p": pa.array(tp_p, pa.int64()),
                "n_p": pa.array(n_p, pa.int64()),
                "tp_r": pa.array(tp_r, pa.int64()),
                "n_r": pa.array(n_r, pa.int64()),
            }
        )

    agg = mask_pairs.map_batches(_partial, batch_format="pyarrow", batch_size=64).aggregate(
        Sum("tp_p"), Sum("n_p"), Sum("tp_r"), Sum("n_r")
    )
    prec = agg["sum(tp_p)"] / agg["sum(n_p)"] if agg["sum(n_p)"] else 0.0
    rec = agg["sum(tp_r)"] / agg["sum(n_r)"] if agg["sum(n_r)"] else 0.0
    return {
        "relaxed_precision": prec,
        "relaxed_recall": rec,
        "relaxed_f1": 2 * prec * rec / (prec + rec) if prec + rec else 0.0,
    }
