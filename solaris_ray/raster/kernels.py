"""Rasterize / morphology / polygonize kernels (pure numpy).

Replacements for the rasterio.features + skimage.morphology calls at
the heart of the reference's mask generation:

- ``rasterize_rings``  ≙ rasterio.features.rasterize as used by
  footprint_mask (solaris/vector/mask.py:181-236): a pixel is burned
  when its CENTER is inside the polygon (even-odd rule).
- ``dilate_square`` / ``erode_square`` ≙ skimage square-strel
  morphology in boundary_mask (solaris/vector/mask.py:239-318).
- ``polygonize``       ≙ rasterio.features.shapes as used by
  mask_to_poly_geojson (solaris/vector/mask.py:718-818):
  4-connected components traced to rectilinear pixel-boundary rings.
- ``simplify_ring``    ≙ shapely ``.simplify`` (Douglas–Peucker).

The label path runs on two whole-array tables instead of per-edge,
per-run and per-pixel loops:

- the SPAN TABLE (``ring_spans``): every edge x scanline crossing of
  every ring, sorted and paired into ``(ring, row, xa, xb)`` spans.
  ``rasterize_rings`` paints it; ``span_cover`` counts how many spans
  cover each pixel (the contact mask's cover, one pass per tile).
- the RUN TABLE (``_run_table``): the row runs of a mask from one
  ``np.diff``, overlapping runs of adjacent rows from ``searchsorted``,
  components from min-label hooking with pointer jumping.
  ``label_components`` paints it; ``polygonize_full`` takes each
  component's pixel count from it, then traces every component's
  boundary in one pass over the label image, as maximal straight
  segments (one per ring vertex).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ring_spans",
    "span_cover",
    "rasterize_rings",
    "rasterize_lines",
    "dilate_square",
    "erode_square",
    "label_components",
    "polygonize",
    "polygonize_full",
    "simplify_ring",
]


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``start[i], start[i] + 1, ..., start[i] + count[i] - 1`` for every
    i, concatenated."""
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())


def ring_spans(
    coords: np.ndarray, offsets: np.ndarray, h: int, w: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The span table of packed rings on an [h, w] grid.

    Returns ``(ring, row, xa, xb)``: ring ``ring[k]`` covers pixels
    ``xa[k] <= col < xb[k]`` of row ``row[k]`` (pixel-centre even-odd
    rule), sorted by (ring, row, xa); empty spans are dropped.  Every
    edge x scanline crossing of every ring is computed in one pass.
    Rings with fewer than 3 vertices cover nothing.  A NaN or infinite
    coordinate raises ``ValueError`` naming its ring.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    none = np.empty(0, dtype=np.int64)
    if len(offsets) < 2:
        return none, none, none, none
    v = np.asarray(coords)[offsets[0] : offsets[-1]]
    finite = np.isfinite(v).all(axis=1)
    if not finite.all():
        bad = offsets[0] + int(np.argmin(finite))
        ring = int(np.searchsorted(offsets, bad, side="right")) - 1
        raise ValueError(f"ring {ring} has a NaN or infinite coordinate")
    lens = np.diff(offsets)
    keep = lens >= 3
    v = v[np.repeat(keep, lens)]
    if len(v) == 0:
        return none, none, none, none
    ring_id = np.flatnonzero(keep)
    lens = lens[keep]
    starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
    x0 = v[:, 0]
    y0 = v[:, 1]
    succ = np.arange(1, len(v) + 1)
    succ[starts + lens - 1] = starts
    x1 = x0[succ]
    y1 = y0[succ]
    # each ring's window: rows it can cover, and the columns parity can
    # toggle in (crossings outside are clipped onto its edges)
    ymin = np.maximum(np.ceil(np.minimum.reduceat(y0, starts) - 0.5), 0).astype(np.int64)
    ymax = np.minimum(np.floor(np.maximum.reduceat(y0, starts) - 0.5) + 1, h).astype(np.int64)
    wx0 = np.maximum(np.ceil(np.minimum.reduceat(x0, starts) - 0.5), 0).astype(np.int64)
    wx1 = np.minimum(np.ceil(np.maximum.reduceat(x0, starts) - 0.5) + 1, w).astype(np.int64)
    ymax[wx1 <= wx0] = 0  # nothing to burn: drop the ring's rows
    # edge e crosses scanline y = row + 0.5 when elo <= y < ehi
    # (half-open, so a vertex counts once); candidate rows are widened
    # by one each way, then tested exactly
    er = np.repeat(np.arange(len(lens)), lens)
    elo = np.minimum(y0, y1)
    ehi = np.maximum(y0, y1)
    ra = np.clip(np.ceil(elo - 0.5) - 1, ymin[er], ymax[er]).astype(np.int64)
    rb = np.clip(np.ceil(ehi - 0.5) + 1, ymin[er], ymax[er]).astype(np.int64)
    cnt = np.maximum(rb - ra, 0)
    e = np.repeat(np.arange(len(v)), cnt)
    row = _ranges(ra, cnt)
    ys = row + 0.5
    hit = (ys >= elo[e]) & (ys < ehi[e])
    e, row, ys = e[hit], row[hit], ys[hit]
    xint = x0[e] + (ys - y0[e]) * (x1[e] - x0[e]) / (y1[e] - y0[e])
    # a crossing toggles parity at pixel ceil(x - 0.5)
    r = er[e]
    px = np.clip(np.ceil(xint - 0.5).astype(np.int64), wx0[r], wx1[r])
    # every (ring, row) has an even number of crossings: sorted, they pair
    # into spans
    key = np.sort((r * h + row) * (w + 1) + px)
    rr, px = np.divmod(key, w + 1)
    r, row = np.divmod(rr[0::2], h)
    xa, xb = px[0::2], px[1::2]
    span = xb > xa
    return ring_id[r[span]], row[span], xa[span], xb[span]


def span_cover(row: np.ndarray, xa: np.ndarray, xb: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """How many spans cover each pixel of ``shape`` (a per-row diff
    array and its cumsum)."""
    h, w = shape
    n = h * (w + 1)
    base = row * (w + 1)
    diff = np.bincount(base + xa, minlength=n) - np.bincount(base + xb, minlength=n)
    return np.cumsum(diff.reshape(h, w + 1), axis=1)[:, :w]


def rasterize_rings(
    coords: np.ndarray,
    offsets: np.ndarray,
    shape: tuple[int, int],
    values: np.ndarray | int = 255,
    out: np.ndarray | None = None,
    dtype=np.uint8,
) -> np.ndarray:
    """Burn packed rings (pixel coords) into a [H, W] array.

    ``values`` is a scalar burn value or a per-ring array (the
    reference's ``burn_field`` semantics, solaris/vector/mask.py:214).
    Later rings overwrite earlier ones, matching rasterio's default.
    Pixel-center even-odd fill of every ring from one ``ring_spans``
    table.
    """
    h, w = shape
    if out is None:
        out = np.zeros((h, w), dtype=dtype)
    ring, row, xa, xb = ring_spans(coords, offsets, h, w)
    if np.isscalar(values):
        out[span_cover(row, xa, xb, shape) > 0] = np.asarray(values)
        return out
    # per-ring values: the highest ring index covering a pixel wins
    lens = xb - xa
    pix = _ranges(row * w + xa, lens)
    owner = np.full(h * w, -1, dtype=np.int64)
    np.maximum.at(owner, pix, np.repeat(ring, lens))
    owner = owner.reshape(h, w)
    hit = owner >= 0
    out[hit] = np.asarray(values)[owner[hit]]
    return out


def rasterize_lines(
    coords: np.ndarray,
    offsets: np.ndarray,
    shape: tuple[int, int],
    value=255,
    out: np.ndarray | None = None,
    dtype=np.uint8,
) -> np.ndarray:
    """Burn polylines (1-px wide, Bresenham-ish via dense sampling).

    Used by the road mask before width dilation
    (road_mask, solaris/vector/mask.py:447-564 — the reference buffers
    then rasterizes; we rasterize the centerline then ``dilate_square``
    by width/2, equivalent for square caps on pixel grids).
    """
    h, w = shape
    if out is None:
        out = np.zeros((h, w), dtype=dtype)
    for i in range(len(offsets) - 1):
        pts = coords[offsets[i] : offsets[i + 1]]
        for j in range(len(pts) - 1):
            p0, p1 = pts[j], pts[j + 1]
            steps = int(max(abs(p1[0] - p0[0]), abs(p1[1] - p0[1])) * 2) + 1
            t = np.linspace(0.0, 1.0, steps)
            xs = np.clip((p0[0] + t * (p1[0] - p0[0])).astype(np.int64), 0, w - 1)
            ys = np.clip((p0[1] + t * (p1[1] - p0[1])).astype(np.int64), 0, h - 1)
            out[ys, xs] = value
    return out


def _sliding_minmax(arr: np.ndarray, k: int, op) -> np.ndarray:
    """Separable square-window min/max filter (edge-padded)."""
    if k <= 1:
        return arr
    pad = k // 2
    from numpy.lib.stride_tricks import sliding_window_view

    mode = "edge"
    a = np.pad(arr, ((pad, k - 1 - pad), (0, 0)), mode=mode)
    a = op(sliding_window_view(a, k, axis=0), axis=-1)
    a = np.pad(a, ((0, 0), (pad, k - 1 - pad)), mode=mode)
    a = op(sliding_window_view(a, k, axis=1), axis=-1)
    return a


def dilate_square(mask: np.ndarray, k: int) -> np.ndarray:
    """Morphological dilation with a k×k square structuring element."""
    return _sliding_minmax(mask, k, np.max)


def erode_square(mask: np.ndarray, k: int) -> np.ndarray:
    """Morphological erosion with a k×k square structuring element."""
    return _sliding_minmax(mask, k, np.min)


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row runs of a boolean [H, W] mask in raster order: run k covers
    columns ``c0[k] <= col < c1[k]`` of row ``row[k]``."""
    h, w = mask.shape
    flat = np.zeros((h, w + 1), dtype=np.int8)
    flat[:, :w] = mask != 0
    d = np.diff(flat.ravel(), prepend=np.int8(0))
    row, c0 = np.divmod(np.flatnonzero(d == 1), w + 1)
    c1 = np.flatnonzero(d == -1) - row * (w + 1)
    return row, c0, c1


def _run_table(mask: np.ndarray):
    """The run table of a boolean mask: ``(row, c0, c1, label, n)``.

    ``label[k]`` is the 4-connected component of run k, 1..n, numbered
    by each component's first run in raster order.  Runs of adjacent
    rows that overlap in columns are found with ``searchsorted``;
    components come from min-label hooking plus pointer jumping.
    """
    row, c0, c1 = _runs(mask)
    w1 = mask.shape[1] + 1
    start, end = row * w1 + c0, row * w1 + c1
    # run b touches the runs of the row above whose end > its start and
    # whose start < its end (keys shifted up one row)
    lo = np.searchsorted(end, start - w1, side="right")
    hi = np.searchsorted(start, end - w1, side="left")
    cnt = np.maximum(hi - lo, 0)
    b = np.repeat(np.arange(len(row)), cnt)
    a = _ranges(lo, cnt)
    root = np.arange(len(row))
    while True:
        ra, rb = root[a], root[b]
        if np.array_equal(ra, rb):
            break
        # hook the larger root under the smaller, then flatten
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    # a root is its component's first run; number components in that order
    rank = np.cumsum(root == np.arange(len(row)))
    return row, c0, c1, rank[root].astype(np.int32), int(rank[-1]) if len(rank) else 0


def _paint_runs(shape, row, c0, c1, label) -> np.ndarray:
    """The int32 image of a run table: ``label[k]`` on run k, else 0."""
    h, w = shape
    flat = np.zeros(h * (w + 1), dtype=np.int32)
    flat[row * (w + 1) + c0] = label
    flat[row * (w + 1) + c1] = -label
    return np.ascontiguousarray(np.cumsum(flat, dtype=np.int32).reshape(h, w + 1)[:, :w])


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labeling of a boolean mask.

    Labels start at 1, numbered by each component's first pixel in
    raster order; an empty mask gives ``(zeros, 0)``.
    (rasterio.features.shapes uses 4-connectivity by default.)
    """
    row, c0, c1, label, n = _run_table(mask)
    return _paint_runs(mask.shape, row, c0, c1, label), n


def _trace_loops(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """ALL boundary loops of every component of a label image.

    Directed pixel-edge following with interior on the left.  The
    directed boundary-edge set of a 4-connected component decomposes
    into exactly one outer ring plus one loop per interior hole
    (rasterio ``features.shapes`` emits both —
    solaris/vector/mask.py:776-797).  Returns ``(label, ring)`` pairs,
    by label, each ring an open (N, 2) array of its corners in (x, y)
    pixel-corner coordinates; a component's OUTER ring comes first (it
    owns the component's lexicographically smallest boundary corner).

    The four directed edge maps are merged into maximal straight
    segments, so each ring vertex is one segment, and the segments are
    chained once per vertex.  Each loop starts at its component's
    smallest remaining corner.  At a pinch corner (two out-segments of
    one component) the walk takes the sharpest left turn; with no
    incoming direction it would take the first-inserted out-edge, in
    (pixel row-major, side) order.
    """
    h, w = labels.shape
    p = np.zeros((h + 2, w + 2), dtype=bool)
    p[1:-1, 1:-1] = labels > 0
    fg = p[1:-1, 1:-1]
    # directed boundary edges of pixel (r, c): top (c,r)->(c+1,r),
    # right (c+1,r)->(c+1,r+1), bottom (c+1,r+1)->(c,r+1), left (c,r+1)->(c,r).
    # 4-neighbours in the mask share a label, so every run of edges
    # belongs to one component.
    r_t, a_t, b_t = _runs(fg & ~p[:-2, 1:-1])
    c_r, a_r, b_r = _runs((fg & ~p[1:-1, 2:]).T)
    r_b, a_b, b_b = _runs(fg & ~p[2:, 1:-1])
    c_l, a_l, b_l = _runs((fg & ~p[1:-1, :-2]).T)
    sx = np.concatenate((a_t, c_r + 1, b_b, c_l))
    sy = np.concatenate((r_t, a_r, r_b + 1, b_l))
    ex = np.concatenate((b_t, c_r + 1, a_b, c_l))
    ey = np.concatenate((r_t, b_r, r_b + 1, a_l))
    # pixel and side of each segment's first unit edge
    pix = np.concatenate((r_t * w + a_t, a_r * w + c_r, r_b * w + b_b - 1, (b_l - 1) * w + c_l))
    side = np.repeat(np.arange(4), (len(r_t), len(c_r), len(r_b), len(c_l)))
    lab = labels.ravel()[pix].astype(np.int64)
    dx, dy = np.sign(ex - sx), np.sign(ey - sy)
    skey = (lab * (w + 1) + sx) * (h + 1) + sy
    order = np.lexsort((side, pix, skey))
    # successor: the segment of the same component leaving this one's end
    # corner; at a pinch corner, the one turning left
    ekey = (lab * (w + 1) + ex) * (h + 1) + ey
    sorted_key = skey[order]
    lo = np.searchsorted(sorted_key, ekey, side="left")
    two = np.searchsorted(sorted_key, ekey, side="right") - lo == 2
    first = order[lo]
    second = order[np.minimum(lo + 1, len(order) - 1)]
    left = dx * dy[first] - dy * dx[first] > 0
    succ = np.where(two & ~left, second, first).tolist()
    # walking in key order starts every loop at its smallest corner
    corners = np.stack([sx, sy], axis=1).astype(np.float64)
    lab = lab.tolist()
    seen = [False] * len(succ)
    loops: list[tuple[int, np.ndarray]] = []
    for s in order.tolist():
        if seen[s]:
            continue
        ring = []
        while not seen[s]:
            seen[s] = True
            ring.append(s)
            s = succ[s]
        loops.append((lab[ring[0]], corners[ring]))
    return loops


def polygonize_full(
    mask: np.ndarray, min_area: float = 0.0
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """mask > 0 -> [(outer_ring, [hole_rings...]), ...].

    Mirrors mask_to_poly_geojson (solaris/vector/mask.py:718-818) with
    rasterio ``features.shapes`` semantics: each 4-connected component
    becomes one polygon with its interior rings (holes).  ``min_area``
    filters on the component PIXEL count (net area), taken from the run
    table.  Output order is deterministic: components sorted by (min
    row, min col).
    """
    row, c0, c1, label, n = _run_table(mask > 0)
    if n == 0:
        return []
    area = np.bincount(label, weights=c1 - c0, minlength=n + 1)
    label[(area < min_area)[label]] = 0
    polys: list[tuple[np.ndarray, list[np.ndarray]]] = []
    last = 0
    for i, ring in _trace_loops(_paint_runs(mask.shape, row, c0, c1, label)):
        if i == last:
            polys[-1][1].append(ring)
        else:
            polys.append((ring, []))
            last = i
    return polys


def polygonize(mask: np.ndarray, min_area: float = 0.0) -> list[np.ndarray]:
    """Outer rings only (back-compat; see ``polygonize_full`` for holes)."""
    return [outer for outer, _ in polygonize_full(mask, min_area)]


def simplify_ring(ring: np.ndarray, tolerance: float) -> np.ndarray:
    """Douglas–Peucker simplification of a closed ring (shapely
    ``.simplify`` analogue, solaris/vector/mask.py:804-809)."""
    if len(ring) <= 4 or tolerance <= 0:
        return ring
    pts = np.vstack([ring, ring[:1]])

    def dp(lo: int, hi: int, keep: np.ndarray) -> None:
        if hi <= lo + 1:
            return
        a, b = pts[lo], pts[hi]
        ab = b - a
        denom = np.hypot(*ab)
        seg = pts[lo + 1 : hi]
        if denom == 0:
            d = np.hypot(*(seg - a).T)
        else:
            d = np.abs(ab[0] * (seg[:, 1] - a[1]) - ab[1] * (seg[:, 0] - a[0])) / denom
        imax = int(np.argmax(d))
        if d[imax] > tolerance:
            keep[lo + 1 + imax] = True
            dp(lo, lo + 1 + imax, keep)
            dp(lo + 1 + imax, hi, keep)

    keep = np.zeros(len(pts), dtype=bool)
    keep[0] = keep[-1] = True
    dp(0, len(pts) - 1, keep)
    out = pts[keep]
    return out[:-1]
