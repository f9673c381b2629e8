"""Packed-array polygon/linestring kernels (shapely-free).

Geometry batch representation ("packed rings"): a flat ``(N, 2)``
float64 coordinate array plus an ``offsets`` int64 array of length
``n_geoms + 1`` (Arrow list-offset convention) — ring ``i`` is
``coords[offsets[i]:offsets[i+1]]``.  Rings are closed implicitly
(last vertex need not repeat the first).

These kernels replace the reference's shapely scalar math
(.area/.length/.intersection/.intersects, solaris/eval/iou.py:4-44,
solaris/tile/vector_tile.py:227-324) with vectorized or tight-loop
numpy over whole batches.  Polygon intersection and IoU go through
one batched kernel, ``pair_overlaps``: any number of ring pairs,
either ring concave, exact areas.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ring_areas",
    "ring_lengths",
    "ring_bboxes",
    "ring_centroids",
    "ring_convex",
    "buffer_rings",
    "points_in_polygon",
    "clip_ring_to_box",
    "pack_rings",
    "pair_overlaps",
    "iou_matrix",
    "intersection_area",
    "box_iou",
    "pair_box_iou",
    "polygon_iou",
]


def _localize(coords: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Translate each ring to its first vertex.

    Shoelace on raw UTM-magnitude coordinates (~1e6) loses ~1e-4 m²
    absolute to cancellation (cross terms ~1e12); local coordinates
    make areas/centroids exact to machine precision.
    """
    starts = offsets[:-1]
    counts = np.diff(offsets)
    if len(coords) == 0 or len(starts) == 0:
        return coords[:, 0], coords[:, 1]
    fx = np.repeat(coords[starts, 0], counts)
    fy = np.repeat(coords[starts, 1], counts)
    return coords[:, 0] - fx, coords[:, 1] - fy


def ring_areas(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Shoelace area per ring (absolute value), vectorized over the batch.

    Replaces per-geometry ``geom.area`` loops (e.g. clip_gdf origarea,
    solaris/tile/vector_tile.py:303-306).
    """
    x, y = _localize(coords, offsets)
    # cross product of consecutive vertices, with wraparound per ring
    nxt = np.arange(1, len(coords) + 1)
    starts = offsets[:-1]
    ends = offsets[1:]
    # wrap: last vertex of ring i pairs with first vertex of ring i
    nxt[ends - 1] = starts
    cross = x * y[nxt] - x[nxt] * y
    # segment-sum per ring
    sums = np.add.reduceat(cross, starts) if len(starts) else np.empty(0)
    # reduceat with empty rings (offsets[i]==offsets[i+1]) yields wrong
    # values; mask them to 0
    empty = starts == ends
    if empty.any():
        sums = np.where(empty, 0.0, sums)
    return np.abs(sums) * 0.5


def ring_lengths(coords: np.ndarray, offsets: np.ndarray, closed: bool = True) -> np.ndarray:
    """Perimeter (closed=True) or polyline length (closed=False) per ring.

    Replaces ``geom.length`` (clip_gdf origlen,
    solaris/tile/vector_tile.py:307-310; road graph edge weights,
    solaris/vector/graph.py:79-88).
    """
    x = coords[:, 0]
    y = coords[:, 1]
    starts = offsets[:-1]
    ends = offsets[1:]
    nxt = np.arange(1, len(coords) + 1)
    if closed:
        nxt[ends - 1] = starts
    else:
        nxt[ends - 1] = ends - 1  # zero-length wrap segment
    seg = np.hypot(x[nxt] - x, y[nxt] - y)
    sums = np.add.reduceat(seg, starts) if len(starts) else np.empty(0)
    empty = starts == ends
    if empty.any():
        sums = np.where(empty, 0.0, sums)
    return sums


def ring_bboxes(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n_geoms, 4) array of (minx, miny, maxx, maxy) per ring."""
    starts = offsets[:-1]
    n = len(starts)
    out = np.empty((n, 4), dtype=np.float64)
    if len(coords) == 0:
        return out
    x = coords[:, 0]
    y = coords[:, 1]
    out[:, 0] = np.minimum.reduceat(x, starts)
    out[:, 1] = np.minimum.reduceat(y, starts)
    out[:, 2] = np.maximum.reduceat(x, starts)
    out[:, 3] = np.maximum.reduceat(y, starts)
    return out


def ring_centroids(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n_geoms, 2) polygon centroids (area-weighted, shoelace formula,
    localized per ring for numerical stability)."""
    x, y = _localize(coords, offsets)
    starts = offsets[:-1]
    ends = offsets[1:]
    nxt = np.arange(1, len(coords) + 1)
    nxt[ends - 1] = starts
    cross = x * y[nxt] - x[nxt] * y
    cx = (x + x[nxt]) * cross
    cy = (y + y[nxt]) * cross
    a = np.add.reduceat(cross, starts) * 0.5
    sx = np.add.reduceat(cx, starts)
    sy = np.add.reduceat(cy, starts)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.stack([sx / (6.0 * a), sy / (6.0 * a)], axis=1)
    # degenerate (zero-area) rings: fall back to vertex mean
    bad = ~np.isfinite(out).all(axis=1)
    if bad.any():
        mx = np.add.reduceat(x, starts) / np.maximum(ends - starts, 1)
        my = np.add.reduceat(y, starts) / np.maximum(ends - starts, 1)
        out[bad, 0] = mx[bad]
        out[bad, 1] = my[bad]
    # back to world frame (x/y were localized to each ring's first vertex)
    if len(starts):
        out[:, 0] += coords[starts, 0]
        out[:, 1] += coords[starts, 1]
    return out


def points_in_polygon(px: np.ndarray, py: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Vectorized even-odd point-in-polygon test: many points vs ONE ring.

    Replaces the STRtree candidate + ``.intersects`` exact test for
    point features (solaris/tile/vector_tile.py:198-224).  Boundary
    points follow the even-odd crossing convention.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    x0 = ring[:, 0]
    y0 = ring[:, 1]
    x1 = np.roll(x0, -1)
    y1 = np.roll(y0, -1)
    inside = np.zeros(len(px), dtype=bool)
    for i in range(len(ring)):  # loop over edges (few), vectorized over points (many)
        cond = (y0[i] > py) != (y1[i] > py)
        if not cond.any():
            continue
        xint = (x1[i] - x0[i]) * (py - y0[i]) / (y1[i] - y0[i]) + x0[i]
        inside ^= cond & (px < xint)
    return inside


def clip_ring_to_box(ring: np.ndarray, minx: float, miny: float, maxx: float, maxy: float) -> np.ndarray:
    """Sutherland–Hodgman clip of one ring against an axis-aligned box.

    This is the tile-clip kernel of the vector tiler: the reference
    does ``gdf.intersection(shapely.box(*tile_bounds))``
    (solaris/tile/vector_tile.py:311-316).  A box is convex, so S-H is
    exact for any simple subject polygon.  Returns the clipped ring
    ((M, 2) array, possibly empty).
    """
    out = ring
    for axis, bound, keep_ge in ((0, minx, True), (0, maxx, False), (1, miny, True), (1, maxy, False)):
        if len(out) == 0:
            return out
        vals = out[:, axis]
        inside = vals >= bound if keep_ge else vals <= bound
        if inside.all():
            continue
        nxt = np.roll(np.arange(len(out)), -1)
        pieces = []

        def _isect(i, j):
            t = (bound - vals[i]) / (vals[j] - vals[i])
            p = out[i] + t * (out[j] - out[i])
            p[axis] = bound  # pin the constrained coordinate exactly
            return p

        for i in range(len(out)):
            j = nxt[i]
            if inside[i]:
                pieces.append(out[i])
                if not inside[j]:
                    pieces.append(_isect(i, j))
            elif inside[j]:
                pieces.append(_isect(i, j))
        out = np.asarray(pieces, dtype=np.float64).reshape(-1, 2)
    return out


def clip_line_to_box(
    pts: np.ndarray, minx: float, miny: float, maxx: float, maxy: float
) -> list[np.ndarray]:
    """Clip a polyline to an axis-aligned box (Liang–Barsky per segment).

    Returns a list of polyline pieces inside the box (the reference's
    ``line.intersection(box)`` may likewise return MultiLineString;
    vector_tile.py:311-316).  Adjacent surviving segments are merged.
    """
    pieces: list[list[np.ndarray]] = []
    cur: list[np.ndarray] = []
    for i in range(len(pts) - 1):
        p0, p1 = pts[i], pts[i + 1]
        d = p1 - p0
        t0, t1 = 0.0, 1.0
        ok = True
        for p, q in (
            (-d[0], p0[0] - minx),
            (d[0], maxx - p0[0]),
            (-d[1], p0[1] - miny),
            (d[1], maxy - p0[1]),
        ):
            if p == 0:
                if q < 0:
                    ok = False
                    break
            else:
                r = q / p
                if p < 0:
                    if r > t1:
                        ok = False
                        break
                    t0 = max(t0, r)
                else:
                    if r < t0:
                        ok = False
                        break
                    t1 = min(t1, r)
        if not ok or t0 > t1:
            if cur:
                pieces.append(cur)
                cur = []
            continue
        a = p0 + t0 * d
        b = p0 + t1 * d
        # inline closeness test (np.allclose costs ~25us per call and
        # this merge check runs per surviving segment in the hot join)
        if cur and abs(cur[-1][0] - a[0]) <= 1e-8 + 1e-5 * abs(a[0]) \
                and abs(cur[-1][1] - a[1]) <= 1e-8 + 1e-5 * abs(a[1]):
            cur.append(b)
        else:
            if cur:
                pieces.append(cur)
            cur = [a, b]
    if cur:
        pieces.append(cur)
    return [np.asarray(p) for p in pieces if len(p) >= 2]


def clip_polys_to_boxes_batch(
    P: np.ndarray,
    nv: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Sutherland–Hodgman: K polygons vs K boxes at once.

    ``P`` is (K, M, 2) vertex-padded rings, ``nv`` the true vertex
    counts, boxes given per row.  Returns (P_out, nv_out) padded the
    same way; rows clipped away have ``nv_out < 3``.

    Emission rule and interpolation formula are IDENTICAL to the
    scalar ``clip_ring_to_box`` (t = (bound-v_i)/(v_j-v_i)), so results
    are bit-for-bit equal — the clip-join parity gate depends on that.
    This is the hot kernel of the spatial join: one pass handles every
    (tile, candidate) pair in a batch with no per-pair Python.
    """
    K, M, _ = P.shape
    if K == 0:
        return P, nv
    bounds = (
        (0, x0, True),
        (0, x1, False),
        (1, y0, True),
        (1, y1, False),
    )
    for axis, bound, keep_ge in bounds:
        M = P.shape[1]
        vals = P[:, :, axis]
        edge_mask = np.arange(M)[None, :] < nv[:, None]
        if keep_ge:
            inside = vals >= bound[:, None]
        else:
            inside = vals <= bound[:, None]
        inside &= edge_mask
        # next-vertex index with per-row wraparound
        nxt_idx = np.arange(1, M + 1)[None, :] % np.maximum(nv, 1)[:, None]
        rows = np.arange(K)[:, None]
        vals_j = vals[rows, nxt_idx]
        P_j = P[rows, nxt_idx]
        inside_j = np.take_along_axis(inside, nxt_idx, axis=1)
        cross = (inside != inside_j) & edge_mask
        emit_cur = inside  # emit current vertex when inside
        counts = emit_cur.astype(np.int64) + cross.astype(np.int64)
        nv_out = counts.sum(axis=1)
        M_out = int(nv_out.max()) if K else 0
        if M_out == 0:
            return np.zeros((K, 0, 2)), nv_out
        out = np.zeros((K, M_out, 2), dtype=np.float64)
        start = np.cumsum(counts, axis=1) - counts  # exclusive prefix sum
        # scatter current vertices
        r, c = np.nonzero(emit_cur)
        out[r, start[r, c]] = P[r, c]
        # scatter intersections (placed after the current vertex if any)
        r2, c2 = np.nonzero(cross)
        vi = vals[r2, c2]
        vj = vals_j[r2, c2]
        t = (bound[r2] - vi) / (vj - vi)
        pt = P[r2, c2] + t[:, None] * (P_j[r2, c2] - P[r2, c2])
        # the constrained coordinate IS the boundary: pin it exactly
        # (kills the t-interpolation ulp; axis-aligned inputs clip
        # bit-exactly, which the SQL join oracles rely on)
        pt[:, axis] = bound[r2]
        out[r2, start[r2, c2] + emit_cur[r2, c2]] = pt
        P, nv = out, nv_out
    return P, nv


def padded_ring_areas(P: np.ndarray, nv: np.ndarray) -> np.ndarray:
    """|shoelace| area of padded rings, summed in the same vertex order
    as the scalar ``ring_areas`` (bit-parity with the packed path)."""
    K, M, _ = P.shape
    if K == 0 or M == 0:
        return np.zeros(K)
    rows = np.arange(K)[:, None]
    nxt_idx = np.arange(1, M + 1)[None, :] % np.maximum(nv, 1)[:, None]
    # localize to the first vertex (same trick as ring_areas: UTM-scale
    # raw coords lose precision to cancellation)
    x = P[:, :, 0] - P[:, :1, 0]
    y = P[:, :, 1] - P[:, :1, 1]
    xj = x[rows, nxt_idx]
    yj = y[rows, nxt_idx]
    term = x * yj - xj * y
    term[np.arange(M)[None, :] >= nv[:, None]] = 0.0
    return np.abs(term.sum(axis=1)) * 0.5


def pack_rings(rings: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """List of (n_i, 2) rings -> packed ``(coords, offsets)``."""
    offsets = np.zeros(len(rings) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rings], out=offsets[1:])
    if not rings:
        return np.zeros((0, 2)), offsets
    return np.concatenate(rings).astype(np.float64, copy=False).reshape(-1, 2), offsets


def _ear_clip(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Triangulate one counter-clockwise simple ring -> (T, 3) vertex
    indices, all triangles counter-clockwise.

    An ear is a convex vertex whose triangle holds no other vertex;
    only reflex vertices can lie inside one, so only they are tested.
    Vertices with zero turn (collinear or spikes) span no area and are
    dropped.  A ring with no ear is not simple; its sharpest convex
    vertex is cut anyway.
    """
    idx = np.arange(len(x))
    tris = []
    while len(idx) > 3:
        m = len(idx)
        px, py = x[idx], y[idx]
        k = np.arange(m)
        ax, ay = px[k - 1], py[k - 1]
        bx, by = px[(k + 1) % m], py[(k + 1) % m]
        turn = (px - ax) * (by - py) - (py - ay) * (bx - px)
        if (turn == 0).any():
            idx = idx[turn != 0]
            continue
        rx, ry = px[turn < 0], py[turn < 0]
        ear = int(np.argmax(turn))
        for e in np.flatnonzero(turn > 0).tolist():
            # closed-triangle test; a reflex vertex on a corner is the
            # corner itself (rings may touch themselves there)
            corner = ((rx == ax[e]) & (ry == ay[e])) | ((rx == px[e]) & (ry == py[e])) \
                | ((rx == bx[e]) & (ry == by[e]))
            inside = (
                ((px[e] - ax[e]) * (ry - ay[e]) - (py[e] - ay[e]) * (rx - ax[e]) >= 0)
                & ((bx[e] - px[e]) * (ry - py[e]) - (by[e] - py[e]) * (rx - px[e]) >= 0)
                & ((ax[e] - bx[e]) * (ry - by[e]) - (ay[e] - by[e]) * (rx - bx[e]) >= 0)
            )
            if not (inside & ~corner).any():
                ear = e
                break
        tris.append((idx[ear - 1], idx[ear], idx[(ear + 1) % m]))
        idx = np.delete(idx, ear)
    if len(idx) == 3:
        (ax, bx, cx), (ay, by, cy) = x[idx], y[idx]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
            tris.append(tuple(idx))
    return np.asarray(tris, dtype=np.int64).reshape(-1, 3)


def _ring_frame(coords: np.ndarray, offsets: np.ndarray):
    """Per-vertex view of packed rings (empty rings allowed): ring id,
    coordinates relative to the ring's first vertex, previous and next
    vertex indices with per-ring wraparound, and signed ring areas."""
    starts, ends = offsets[:-1], offsets[1:]
    n = len(starts)
    ring_of = np.repeat(np.arange(n), ends - starts)
    local = coords - coords[starts[ring_of]]
    x, y = local[:, 0], local[:, 1]
    live = ends > starts
    prv = np.arange(-1, len(coords) - 1)
    prv[starts[live]] = ends[live] - 1
    nxt = np.arange(1, len(coords) + 1)
    nxt[ends[live] - 1] = starts[live]
    area = 0.5 * np.bincount(ring_of, weights=x * y[nxt] - x[nxt] * y, minlength=n)
    return ring_of, x, y, prv, nxt, area


def _convex_pieces(coords: np.ndarray, offsets: np.ndarray):
    """Split every ring into counter-clockwise convex pieces.

    One cross-product sign test per vertex decides convexity: a ring
    whose turns all share its orientation's sign is one piece (its own
    vertices, reversed when clockwise); any other ring is ear-clipped
    into triangles.  Rings under 3 vertices or with zero area have no
    pieces.  Returns ``(first, idx, area)``: ring ``r`` owns pieces
    ``first[r]:first[r + 1]``; row ``idx[p]`` lists piece ``p``'s
    vertex indices into ``coords`` and then repeats its first vertex up
    to the common width (a closed ring whose padding edges have zero
    length); ``area`` holds the unsigned ring areas.
    """
    starts, ends = offsets[:-1], offsets[1:]
    n = len(starts)
    counts = ends - starts
    ring_of, x, y, prv, nxt, area = _ring_frame(coords, offsets)
    turn = (x - x[prv]) * (y[nxt] - y) - (y - y[prv]) * (x[nxt] - x)
    n_against = np.bincount(ring_of, weights=turn * np.sign(area)[ring_of] < 0, minlength=n)
    has_area = (counts >= 3) & (area != 0)
    convex = has_area & (n_against == 0)

    cs, cc = starts[convex], counts[convex]
    cols = np.arange(max(int(cc.max()) if len(cc) else 0, 3) + 1)
    step = np.where(area[convex] > 0, 1, -1)[:, None]
    first_v = np.where(step[:, 0] > 0, cs, cs + cc - 1)[:, None]
    ring_ids = [np.flatnonzero(convex)]
    pieces = [first_v + step * np.where(cols < cc[:, None], cols, 0)]
    for r in np.flatnonzero(has_area & ~convex).tolist():
        ring = np.arange(starts[r], ends[r])
        if area[r] < 0:
            ring = ring[::-1]
        tri = ring[_ear_clip(x[ring], y[ring])]
        ring_ids.append(np.full(len(tri), r))
        pieces.append(tri[:, np.where(cols < 3, cols, 0)])
    ring_of_piece = np.concatenate(ring_ids)
    first = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ring_of_piece, minlength=n), out=first[1:])
    return first, np.concatenate(pieces)[np.argsort(ring_of_piece, kind="stable")], np.abs(area)


def _clip_halfplane(P: np.ndarray, nv: np.ndarray, p0: np.ndarray, p1: np.ndarray):
    """One Sutherland–Hodgman step for K rings at once: keep the part of
    ring ``k`` left of the directed line ``p0[k] -> p1[k]`` (points
    within 1e-12 of it count as inside).

    ``P`` is (K, W, 2): row ``k`` holds ``nv[k]`` vertices, then its
    first vertex again, then anything; the output keeps that layout,
    zero-padded.  Each vertex owns two output slots, itself if inside
    and its edge's crossing point if the edge crosses the line — the
    emission order of ``clip_polys_to_boxes_batch``.  A zero-length
    edge keeps every vertex.
    """
    K = len(P)
    d = (p1[:, 0] - p0[:, 0])[:, None] * (P[:, :, 1] - p0[:, 1, None]) \
        - (p1[:, 1] - p0[:, 1])[:, None] * (P[:, :, 0] - p0[:, 0, None])
    di, dj = d[:, :-1], d[:, 1:]
    Pi, Pj = P[:, :-1], P[:, 1:]
    valid = np.arange(P.shape[1] - 1)[None, :] < nv[:, None]
    inside = di >= -1e-12
    cross = (inside != (dj >= -1e-12)) & valid
    inside &= valid
    t = np.divide(di, di - dj, out=np.zeros_like(di), where=cross)
    slots = np.stack((Pi, Pi + t[:, :, None] * (Pj - Pi)), axis=2).reshape(K, -1, 2)
    keep = np.stack((inside, cross), axis=2).reshape(K, -1)
    pos = np.cumsum(keep, axis=1) - 1
    nv_out = pos[:, -1] + 1
    out = np.zeros((K, int(nv_out.max()) + 1, 2))
    r, c = np.nonzero(keep)
    out[r, pos[r, c]] = slots[r, c]
    out[np.arange(K), nv_out] = out[:, 0]
    return out, nv_out


def pair_overlaps(
    a_coords: np.ndarray,
    a_offsets: np.ndarray,
    b_coords: np.ndarray,
    b_offsets: np.ndarray,
    ia: np.ndarray,
    ib: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact intersection area and IoU of K ring pairs
    ``(a[ia[k]], b[ib[k]])`` in one padded pass — the kernel behind
    every polygon IoU (reference: solaris/eval/iou.py:4-44 via shapely
    intersection; IoU = inter / (area_a + area_b - inter)).

    Each ring's area is computed once, and each ``b`` is split once
    into convex pieces (``_convex_pieces``).  Every (pair, piece) row
    then clips its ``a`` against the piece's edges, all rows together
    (``_clip_halfplane``), and the piece areas sum back onto their
    pair.  Sutherland–Hodgman against a convex clip is exact for any
    simple subject, so both rings may be concave; interiors of holes
    are not modelled (one ring per geometry).  Each pair works in a
    frame at its ``a``'s first vertex, so UTM-magnitude inputs keep
    full precision.
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    K = len(ia)
    first, piece_idx, area_b = _convex_pieces(b_coords, b_offsets)
    area_a = np.abs(_ring_frame(a_coords, a_offsets)[5])
    a_start = a_offsets[:-1][ia]
    a_nv = (a_offsets[1:] - a_offsets[:-1])[ia]
    n_rows = np.where(a_nv >= 3, first[ib + 1] - first[ib], 0)
    pair = np.repeat(np.arange(K), n_rows)
    piece = first[ib][pair] + np.arange(len(pair)) - (np.cumsum(n_rows) - n_rows)[pair]

    # rows in the pair frame, closed: a's first vertex is the origin, so
    # the closing vertex and the padding are both (0, 0)
    nv = a_nv[pair]
    cols = np.arange((int(nv.max()) if len(nv) else 0) + 1)[None, :]
    start = a_start[pair][:, None]
    origin = a_coords[start]
    P = a_coords[start + np.where(cols < nv[:, None], cols, 0)] - origin
    C = b_coords[piece_idx[piece]] - origin
    for e in range(C.shape[1] - 1):
        if not nv.any():
            break
        P, nv = _clip_halfplane(P, nv, C[:, e], C[:, e + 1])

    # the shoelace sum runs column by column, not in numpy's pairwise
    # order, which rounds a row by the width of the widest: the zero
    # padding then adds nothing, and a pair's area is the same in any call
    x, y = P[:, :, 0], P[:, :, 1]
    rows = np.zeros(len(P))
    for c in range(P.shape[1] - 1):
        rows += x[:, c] * y[:, c + 1] - x[:, c + 1] * y[:, c]
    rows = np.abs(rows) * 0.5
    inter = np.bincount(pair, weights=rows, minlength=K)
    union = area_a[ia] + area_b[ib] - inter
    ok = (inter > 0) & (union > 0)
    iou = np.where(ok, inter / np.where(ok, union, 1.0), 0.0)
    return inter, iou


def iou_matrix(
    a_coords: np.ndarray, a_offsets: np.ndarray, b_coords: np.ndarray, b_offsets: np.ndarray
) -> np.ndarray:
    """(n_a, n_b) exact IoU of every ring pair: one bbox prefilter
    (``box_iou`` > 0, the reference's R-tree candidate lookup,
    solaris/eval/base.py:46,268-283) and one ``pair_overlaps`` call
    over the candidates; pairs whose boxes share no area are 0."""
    out = np.zeros((len(a_offsets) - 1, len(b_offsets) - 1))
    if out.size:
        ia, ib = np.nonzero(
            box_iou(ring_bboxes(a_coords, a_offsets), ring_bboxes(b_coords, b_offsets)) > 0
        )
        out[ia, ib] = pair_overlaps(a_coords, a_offsets, b_coords, b_offsets, ia, ib)[1]
    return out


def _pair_of(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 2)
    zero = np.zeros(1, dtype=np.int64)
    return pair_overlaps(a, np.array([0, len(a)]), b, np.array([0, len(b)]), zero, zero)


def intersection_area(a: np.ndarray, b: np.ndarray) -> float:
    """Exact intersection area of two simple rings (K=1 ``pair_overlaps``)."""
    return float(_pair_of(a, b)[0][0])


def polygon_iou(a: np.ndarray, b: np.ndarray) -> float:
    """IoU of two simple rings, either may be concave (K=1
    ``pair_overlaps``; mirrors ``calculate_iou``,
    solaris/eval/iou.py:4-44)."""
    return float(_pair_of(a, b)[1][0])


def ring_convex(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per ring: do all its turns share one sign?  The cross products of
    consecutive edges (with wraparound) must all be ``>= -1e-9`` or all
    ``<= 1e-9``; a ring under 4 vertices counts as convex.  One pass
    over every vertex of the batch."""
    offsets = np.asarray(offsets, dtype=np.int64)
    ring_of, _, _, prv, nxt, _ = _ring_frame(coords, offsets)
    x, y = coords[:, 0], coords[:, 1]
    cross = (x - x[prv]) * (y[nxt] - y) - (y - y[prv]) * (x[nxt] - x)
    n = len(offsets) - 1
    no_left = np.bincount(ring_of[~(cross >= -1e-9)], minlength=n) == 0
    no_right = np.bincount(ring_of[~(cross <= 1e-9)], minlength=n) == 0
    return no_left | no_right | (np.diff(offsets) < 4)


def buffer_rings(coords: np.ndarray, offsets: np.ndarray, dist: float) -> np.ndarray:
    """Offset every CONVEX packed ring outward by ``dist`` (miter joins),
    in one pass over all vertices; returns the offset coordinates, which
    share ``offsets``.

    Each ring is taken counter-clockwise (a clockwise one comes back
    reversed).  Each edge line is shifted ``dist`` along its outward
    normal and consecutive shifted lines are intersected — the exact
    Minkowski sum with a disc up to the (rounded) corners, which miter
    joins overestimate slightly; the reference's shapely ``buffer`` uses
    round joins (solaris/vector/mask.py:567-666).  For the contact-mask
    use (spacing/2 buffers on near-rectangular footprints) the corner
    difference is sub-pixel.  Where two consecutive edges are parallel
    the vertex just moves along the later edge's normal.  A concave
    ring's miter offset is not its buffer: test with ``ring_convex``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    coords = np.asarray(coords, dtype=np.float64)
    ring_of, _, _, prv, nxt, area = _ring_frame(coords, offsets)
    starts, ends = offsets[:-1][ring_of], offsets[1:][ring_of]
    v = np.arange(len(coords))
    r = coords[np.where(area[ring_of] >= 0, v, starts + ends - 1 - v)]
    e = r[nxt] - r
    ln = np.hypot(e[:, 0], e[:, 1])
    ln[ln == 0] = 1.0
    # outward normal of a CCW ring: (e_y, -e_x) / |e|
    p = r + dist * np.stack([e[:, 1] / ln, -e[:, 0] / ln], axis=1)  # shifted edge starts
    # vertex i: the shifted line of edge j = i - 1 (p[j] + t * e[j])
    # meets the shifted line of edge i
    ej, pj = e[prv], p[prv]
    denom = ej[:, 0] * e[:, 1] - ej[:, 1] * e[:, 0]
    par = np.abs(denom) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((p[:, 0] - pj[:, 0]) * e[:, 1] - (p[:, 1] - pj[:, 1]) * e[:, 0]) / denom
        return np.where(par[:, None], p, pj + t[:, None] * ej)


def buffer_convex(ring: np.ndarray, dist: float) -> np.ndarray:
    """Offset one CONVEX ring outward by ``dist``: the one-ring
    ``buffer_rings`` call."""
    return buffer_rings(ring, np.array([0, len(ring)]), dist)


def internal_intersection_pairs(
    coords: np.ndarray, offsets: np.ndarray, buffer_dist: float = 0.0
) -> list[tuple[int, int, float]]:
    """Pairwise intersection areas among (optionally buffered) rings —
    ``geometries_internal_intersection`` semantics
    (solaris/utils/geo.py:421-477): one bbox prefilter over all pairs
    i < j, one ``pair_overlaps`` call over the candidates.  Returns
    (i, j, area) triples for pairs sharing positive area, ordered by
    (i, j).  ``buffer_dist > 0`` buffers every ring in one
    ``buffer_rings`` call first; a concave ring raises ``ValueError``
    naming it, because its miter offset is not its buffer.
    """
    if buffer_dist > 0:
        concave = np.flatnonzero(~ring_convex(coords, offsets))
        if len(concave):
            raise ValueError(f"ring {concave[0]} is concave: buffer_dist > 0 needs convex rings")
        coords = buffer_rings(coords, offsets, buffer_dist)
    bbox = ring_bboxes(coords, offsets)
    ia, ib = np.nonzero(np.triu(box_iou(bbox, bbox) > 0, k=1))
    inter = pair_overlaps(coords, offsets, coords, offsets, ia, ib)[0]
    hit = inter > 0
    return list(zip(ia[hit].tolist(), ib[hit].tolist(), inter[hit].tolist()))


def box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of two arrays of boxes (n,4) x (m,4) -> (n,m).

    Fully vectorized; the eval matcher uses it as a cheap prefilter
    before exact polygon IoU (replaces the reference's R-tree candidate
    lookup, solaris/eval/base.py:46,268-283).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return pair_box_iou(a[:, None], b[None, :])


def pair_box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of boxes ``a[..., :4]`` and ``b[..., :4]`` broadcast against
    each other: (k,4) x (k,4) -> (k,) row by row, the same arithmetic
    as ``box_iou``."""
    ix0 = np.maximum(a[..., 0], b[..., 0])
    iy0 = np.maximum(a[..., 1], b[..., 1])
    ix1 = np.minimum(a[..., 2], b[..., 2])
    iy1 = np.minimum(a[..., 3], b[..., 3])
    iw = np.clip(ix1 - ix0, 0.0, None)
    ih = np.clip(iy1 - iy0, 0.0, None)
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    union = area_a + area_b - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0, inter / union, 0.0)
    return iou
