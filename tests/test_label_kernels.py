"""The whole-array label-path kernels against the loop kernels they
replaced.

``rasterize_rings``/``_fill_ring``, ``label_components``,
``_trace_loops`` and ``polygonize_full`` below are the earlier
one-edge, one-run and one-pixel-at-a-time loops, kept verbatim as
test-only references.  Hypothesis checks that the array kernels in
``solaris_ray.raster.kernels`` give bit-identical results: the same
pixels, labels, ring vertices, ring order, start corners and pinch
choices.

The mask layer's references follow: the per-tile ``tile_masks`` body
with its per-ring ``buffer_convex`` loop, ``_is_convex``, the
``sliding_window_view`` morphology and the per-segment
``rasterize_lines`` loop.  The bucket kernel ``masks.tile_masks`` must
give byte-identical mask tables.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from solaris_ray.geom import poly
from solaris_ray.raster import codec, kernels
from solaris_ray.sources import synth
from solaris_ray.stages import masks, tiler
from solaris_ray.stages._buckets import per_key
from solaris_ray.stages.joins import build_join_index, join_tile_batch_to_pack

# --- references: the loop kernels, verbatim --------------------------------


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
    Pixel-center even-odd scanline fill.
    """
    h, w = shape
    if out is None:
        out = np.zeros((h, w), dtype=dtype)
    n = len(offsets) - 1
    vals = np.full(n, values) if np.isscalar(values) else np.asarray(values)
    for i in range(n):
        ring = coords[offsets[i] : offsets[i + 1]]
        if len(ring) < 3:
            continue
        _fill_ring(out, ring, vals[i], h, w)
    return out


def _fill_ring(out: np.ndarray, ring: np.ndarray, value, h: int, w: int) -> None:
    x0 = ring[:, 0]
    y0 = ring[:, 1]
    # manual roll: np.roll's axis normalization costs more than the
    # whole fill on small rings
    x1 = np.empty_like(x0)
    x1[:-1] = x0[1:]
    x1[-1] = x0[0]
    y1 = np.empty_like(y0)
    y1[:-1] = y0[1:]
    y1[-1] = y0[0]
    ymin = max(int(np.ceil(y0.min() - 0.5)), 0)
    ymax = min(int(np.floor(y0.max() - 0.5)) + 1, h)  # exclusive
    if ymax <= ymin:
        return
    # window the parity accumulator to the ring's x-extent: crossings
    # can only toggle inside it, and parity left of it is 0 — a small
    # footprint on a wide tile otherwise pays O(rows * W) cumsum per
    # ring for O(rows * footprint) of actual work
    wx0 = max(int(np.ceil(x0.min() - 0.5)), 0)
    wx1 = min(int(np.ceil(x0.max() - 0.5)) + 1, w)  # exclusive
    if wx1 <= wx0:
        return
    ww = wx1 - wx0
    rows = np.arange(ymin, ymax)
    ys = rows + 0.5
    # edges crossing each scanline (half-open [min, max) to handle vertices)
    elo = np.minimum(y0, y1)
    ehi = np.maximum(y0, y1)
    nonhoriz = ehi > elo
    # diff-array fill: +1 at span start pixel, -1 at span end pixel
    acc = np.zeros((len(rows), ww + 1), dtype=np.int32)
    for e in np.nonzero(nonhoriz)[0]:
        m = (ys >= elo[e]) & (ys < ehi[e])
        if not m.any():
            continue
        xint = x0[e] + (ys[m] - y0[e]) * (x1[e] - x0[e]) / (y1[e] - y0[e])
        ri = rows[m] - ymin
        # crossing toggles parity at pixel index ceil(x - 0.5)
        px = np.ceil(xint - 0.5).astype(np.int64)
        px = np.clip(px, wx0, wx1) - wx0
        np.add.at(acc, (ri, px), 1)
    inside = (np.cumsum(acc[:, :-1], axis=1) % 2) == 1
    sub = out[ymin:ymax, wx0:wx1]
    sub[inside] = value


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """4-connected component labeling of a boolean mask.

    Two-pass union-find, vectorized row merging; labels start at 1.
    (rasterio.features.shapes uses 4-connectivity by default.)
    """
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    parent = [0]  # parent[i] for union-find; 0 = background sentinel

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    nxt = 1
    for r in range(h):
        row = mask[r]
        runs = np.flatnonzero(np.diff(np.concatenate(([0], row.view(np.uint8), [0]))))
        for s, e in zip(runs[::2], runs[1::2]):
            above = labels[r - 1, s:e] if r > 0 else np.empty(0, dtype=np.int32)
            touching = np.unique(above[above > 0])
            if len(touching) == 0:
                parent.append(nxt)
                labels[r, s:e] = nxt
                nxt += 1
            else:
                roots = sorted({find(int(t)) for t in touching})
                keep = roots[0]
                for other in roots[1:]:
                    parent[other] = keep
                labels[r, s:e] = keep
    # flatten labels
    remap = np.arange(nxt, dtype=np.int32)
    for i in range(1, nxt):
        remap[i] = find(i)
    # compact to 1..n
    uniq, compact = np.unique(remap[1:], return_inverse=True)
    lut = np.zeros(nxt, dtype=np.int32)
    lut[1:] = compact + 1
    out = lut[remap[labels]]
    return out, int(out.max())


def _trace_loops(comp: np.ndarray) -> list[np.ndarray]:
    """ALL boundary loops of a 4-connected component.

    Directed pixel-edge following with interior on the left.  The
    directed boundary-edge set of a component decomposes into exactly
    one outer ring plus one loop per interior hole (rasterio
    ``features.shapes`` emits both — solaris/vector/mask.py:776-797).
    Returns open (N, 2) rings in (x, y) pixel-corner coordinates,
    collinear points merged; the OUTER ring is always first (it owns
    the lexicographically smallest boundary corner).
    """
    h, w = comp.shape
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = comp
    inside = padded
    # directed edges: key = start corner, val = list of (end corner)
    edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
    n_edges = 0
    rs, cs = np.nonzero(comp)
    for r, c in zip(rs.tolist(), cs.tolist()):
        pr, pc = r + 1, c + 1
        if not inside[pr - 1, pc]:  # top edge, rightward
            edges.setdefault((c, r), []).append((c + 1, r))
            n_edges += 1
        if not inside[pr, pc + 1]:  # right edge, downward
            edges.setdefault((c + 1, r), []).append((c + 1, r + 1))
            n_edges += 1
        if not inside[pr + 1, pc]:  # bottom edge, leftward
            edges.setdefault((c + 1, r + 1), []).append((c, r + 1))
            n_edges += 1
        if not inside[pr, pc - 1]:  # left edge, upward
            edges.setdefault((c, r + 1), []).append((c, r))
            n_edges += 1
    loops: list[np.ndarray] = []
    while n_edges > 0:
        # start each loop at the smallest remaining corner; the first
        # loop traced is therefore the outer ring
        start = min(k for k, v in edges.items() if v)
        ring = [start]
        prev_dir = None
        cur = start
        while True:
            outs = edges[cur]
            if len(outs) == 1:
                nxt = outs.pop()
            else:
                # ambiguous corner (pinch): prefer the sharpest left
                # turn so each loop stays simple and closed
                def turn_key(cand):
                    dx, dy = cand[0] - cur[0], cand[1] - cur[1]
                    if prev_dir is None:
                        return 0
                    px, py = prev_dir
                    cross = px * dy - py * dx
                    dot = px * dx + py * dy
                    return -np.arctan2(cross, dot)

                nxt = min(outs, key=turn_key)
                outs.remove(nxt)
            n_edges -= 1
            prev_dir = (nxt[0] - cur[0], nxt[1] - cur[1])
            cur = nxt
            if cur == start:
                break
            ring.append(cur)
        arr = np.asarray(ring, dtype=np.float64)
        # merge collinear runs (rectilinear → keep corners only)
        if len(arr) > 2:
            prev_seg = arr - np.roll(arr, 1, axis=0)
            next_seg = np.roll(arr, -1, axis=0) - arr
            corner = (prev_seg[:, 0] * next_seg[:, 1] - prev_seg[:, 1] * next_seg[:, 0]) != 0
            arr = arr[corner]
        loops.append(arr)
    return loops


def polygonize_full(
    mask: np.ndarray, min_area: float = 0.0
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """mask > 0 -> [(outer_ring, [hole_rings...]), ...].

    Mirrors mask_to_poly_geojson (solaris/vector/mask.py:718-818) with
    rasterio ``features.shapes`` semantics: each 4-connected component
    becomes one polygon with its interior rings (holes).  ``min_area``
    filters on the component PIXEL count (net area).  Output order is
    deterministic: components sorted by (min row, min col).
    """
    labels, n = label_components(mask > 0)
    polys = []
    for i in range(1, n + 1):
        comp = labels == i
        area = float(comp.sum())
        if area < min_area:
            continue
        loops = _trace_loops(comp)
        polys.append((loops[0], loops[1:]))
    return polys


# --- mask-layer references, verbatim ------------------------------------------


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


def rasterize_lines(
    coords: np.ndarray,
    offsets: np.ndarray,
    shape: tuple[int, int],
    value=255,
    out: np.ndarray | None = None,
    dtype=np.uint8,
) -> np.ndarray:
    """Burn polylines (1-px wide, Bresenham-ish via dense sampling)."""
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


def buffer_convex(ring: np.ndarray, dist: float) -> np.ndarray:
    """Offset a CONVEX ring outward by ``dist`` (miter joins)."""
    r = ring[_ccw_order(ring)]
    n = len(r)
    e = np.roll(r, -1, axis=0) - r
    ln = np.hypot(e[:, 0], e[:, 1])
    ln[ln == 0] = 1.0
    # outward normal of a CCW ring is (dy, -dx) rotated: (e_y, -e_x)/|e|
    nx = e[:, 1] / ln
    ny = -e[:, 0] / ln
    p = r + dist * np.stack([nx, ny], axis=1)  # shifted edge start points
    d = e  # direction unchanged
    out = np.empty_like(r)
    for i in range(n):
        j = (i - 1) % n
        # intersect line j (p[j] + t*d[j]) with line i (p[i] + s*d[i])
        denom = d[j, 0] * d[i, 1] - d[j, 1] * d[i, 0]
        if abs(denom) < 1e-12:
            out[i] = p[i]
            continue
        t = ((p[i, 0] - p[j, 0]) * d[i, 1] - (p[i, 1] - p[j, 1]) * d[i, 0]) / denom
        out[i] = p[j] + t * d[j]
    return out


def _ccw_order(ring: np.ndarray) -> np.ndarray:
    x, y = ring[:, 0] - ring[0, 0], ring[:, 1] - ring[0, 1]
    area2 = float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    return np.arange(len(ring)) if area2 >= 0 else np.arange(len(ring))[::-1]


def _is_convex(ring: np.ndarray) -> bool:
    """All cross products of consecutive edges share a sign."""
    if len(ring) < 4:
        return True
    e = np.diff(np.vstack([ring, ring[:2]]), axis=0)
    cross = e[:-1, 0] * e[1:, 1] - e[:-1, 1] * e[1:, 0]
    return bool((cross >= -1e-9).all() or (cross <= 1e-9).all())


def _to_pixel_rings(
    xs_list, ys_list, x0: float, y1: float, px: float, py: float
) -> tuple[np.ndarray, np.ndarray]:
    """Geo coords -> packed pixel-space rings for one tile."""
    coords = []
    offsets = [0]
    for xs, ys in zip(xs_list, ys_list):
        cx = (np.asarray(xs) - x0) / px
        cy = (y1 - np.asarray(ys)) / py
        coords.append(np.stack([cx, cy], axis=1))
        offsets.append(offsets[-1] + len(cx))
    if not coords:
        return np.empty((0, 2)), np.asarray([0], dtype=np.int64)
    return np.concatenate(coords), np.asarray(offsets, dtype=np.int64)


def tile_masks(
    group: pa.Table,
    tile_size: int = 128,
    boundary_width: int = 3,
    boundary_type: str = "inner",
    contact_spacing: int = 10,
    road_width: int = 4,
    burn_value: int = 255,
    out_fmt: str = "png",
) -> pa.Table:
    """One joined-tile group -> one mask row (the per-tile kernel)."""
    empty = np.zeros((tile_size, tile_size), dtype=np.uint8)
    if group.num_rows == 0:
        return masks.MASK_SCHEMA.empty_table()
    tid = group["tile_id"][0].as_py()
    iid = group["image_id"][0].as_py()
    x0 = float(group["x0"][0].as_py())
    y0 = float(group["y0"][0].as_py())
    x1 = float(group["x1"][0].as_py())
    y1 = float(group["y1"][0].as_py())
    px = (x1 - x0) / tile_size
    py = (y1 - y0) / tile_size
    klass = np.asarray(group["class"].to_pylist())
    xs_all = group["xs"].to_pylist()
    ys_all = group["ys"].to_pylist()

    is_poly = klass != "road"
    poly_idx = np.nonzero(is_poly)[0]
    road_idx = np.nonzero(~is_poly)[0]

    shape = (tile_size, tile_size)
    coords, offsets = _to_pixel_rings(
        [xs_all[i] for i in poly_idx], [ys_all[i] for i in poly_idx], x0, y1, px, py
    )
    footprint = kernels.rasterize_rings(coords, offsets, shape, values=burn_value)

    fb = (footprint > 0).astype(np.uint8)
    if boundary_type == "inner":
        morphed = erode_square(fb, boundary_width)
    else:
        morphed = dilate_square(fb, boundary_width)
    boundary = ((morphed ^ fb) > 0).astype(np.uint8) * burn_value

    k = max(1, int(round(contact_spacing / 2)))
    if len(poly_idx) >= 2:
        cover = np.zeros(shape, dtype=np.int16)
        bufs = []
        for i in range(len(poly_idx)):
            ring = coords[offsets[i] : offsets[i + 1]]
            if _is_convex(ring):
                bufs.append(buffer_convex(ring, float(k)))
            else:
                one = kernels.rasterize_rings(
                    ring, np.asarray([0, len(ring)]), shape, values=1
                )
                cover += dilate_square(one, 2 * k + 1)
        if bufs:
            buf_offsets = np.cumsum([0] + [len(b) for b in bufs])
            _, row, xa, xb = kernels.ring_spans(np.concatenate(bufs), buf_offsets, *shape)
            cover += kernels.span_cover(row, xa, xb, shape)
        contact = ((cover >= 2) & (footprint == 0)).astype(np.uint8) * burn_value
    else:
        contact = empty.copy()

    if len(road_idx):
        rc, ro = _to_pixel_rings(
            [xs_all[i] for i in road_idx], [ys_all[i] for i in road_idx], x0, y1, px, py
        )
        center = rasterize_lines(rc, ro, shape, value=1)
        road = dilate_square(center, road_width).astype(np.uint8) * burn_value
    else:
        road = empty.copy()

    def enc(m):  # binary PNG masks go through the engine's one mask encoder
        return codec.png_encode_masks(m[None])[0] if out_fmt == "png" else codec.encode(m, out_fmt)

    return pa.table(
        {
            "tile_id": pa.array([tid], pa.string()),
            "image_id": pa.array([iid], pa.string()),
            "n_features": pa.array([group.num_rows], pa.int64()),
            "footprint": pa.array([enc(footprint)], pa.binary()),
            "boundary": pa.array([enc(boundary)], pa.binary()),
            "contact": pa.array([enc(contact)], pa.binary()),
            "road": pa.array([enc(road)], pa.binary()),
            "footprint_px": pa.array([int((footprint > 0).sum())], pa.int64()),
            "boundary_px": pa.array([int((boundary > 0).sum())], pa.int64()),
            "contact_px": pa.array([int((contact > 0).sum())], pa.int64()),
            "road_px": pa.array([int((road > 0).sum())], pa.int64()),
        }
    )


# --- strategies -------------------------------------------------------------

# integers, half pixels and arbitrary fractions, on and off a small tile
_coord = st.one_of(
    st.integers(-4, 20).map(float),
    st.integers(-8, 40).map(lambda k: k / 2),
    st.floats(-5.0, 21.0, allow_nan=False, allow_infinity=False),
)
_ring = st.lists(st.tuples(_coord, _coord), min_size=0, max_size=8)


@st.composite
def _rings(draw):
    rings = draw(st.lists(_ring, min_size=0, max_size=6))
    # horizontal edges: sometimes snap a vertex's y to its predecessor's
    rings = [
        [(x, r[i - 1][1]) if i and draw(st.booleans()) else (x, y) for i, (x, y) in enumerate(r)]
        for r in rings
    ]
    coords = np.array([p for r in rings for p in r], dtype=np.float64).reshape(-1, 2)
    offsets = np.cumsum([0] + [len(r) for r in rings]).astype(np.int64)
    return coords, offsets


_shape = st.tuples(st.integers(1, 16), st.integers(1, 16))


@st.composite
def _masks(draw):
    h, w = draw(st.tuples(st.integers(1, 14), st.integers(1, 14)))
    kind = draw(st.sampled_from(["random", "holes", "checker"]))
    if kind == "random":
        return draw(arrays(bool, (h, w)))
    if kind == "holes":
        # a filled block with pixels punched out: holes, islands in holes
        m = np.zeros((h, w), dtype=bool)
        m[h // 4 : h - h // 4, w // 4 : w - w // 4] = True
        return m & ~draw(arrays(bool, (h, w), elements=st.sampled_from([False] * 5 + [True])))
    # diagonal pinches everywhere, with random pixels flipped
    yy, xx = np.indices((h, w))
    return ((yy + xx) % 2 == 0) ^ draw(arrays(bool, (h, w), elements=st.sampled_from([False] * 4 + [True])))


def _same_polys(got, want):
    assert len(got) == len(want)
    for (go, gh), (wo, wh) in zip(got, want):
        assert go.dtype == wo.dtype and np.array_equal(go, wo)
        assert len(gh) == len(wh)
        for a, b in zip(gh, wh):
            assert np.array_equal(a, b)


# --- properties -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_rings(), _shape, st.booleans(), st.data())
def test_rasterize_rings_matches_fill_ring(rings, shape, per_ring, data):
    coords, offsets = rings
    n = len(offsets) - 1
    if per_ring:
        values = np.array(data.draw(st.lists(st.integers(1, 250), min_size=n, max_size=n)), dtype=np.int64)
    else:
        values = data.draw(st.integers(1, 255))
    want = rasterize_rings(coords, offsets, shape, values=values)
    got = kernels.rasterize_rings(coords, offsets, shape, values=values)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # burning into an existing array keeps the pixels no ring covers
    base = np.arange(shape[0] * shape[1], dtype=np.uint8).reshape(shape)
    want = rasterize_rings(coords, offsets, shape, values=values, out=base.copy())
    got = kernels.rasterize_rings(coords, offsets, shape, values=values, out=base.copy())
    assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(_rings(), _shape)
def test_span_cover_counts_rings(rings, shape):
    """The contact cover: one span table counts, per pixel, the rings
    that burn it."""
    coords, offsets = rings
    want = np.zeros(shape, dtype=np.int64)
    for i in range(len(offsets) - 1):
        ring = coords[offsets[i] : offsets[i + 1]]
        want += rasterize_rings(ring, np.array([0, len(ring)]), shape, values=1)
    _, row, xa, xb = kernels.ring_spans(coords, offsets, *shape)
    assert np.array_equal(kernels.span_cover(row, xa, xb, shape), want)


@settings(max_examples=300, deadline=None)
@given(_masks())
def test_label_components_matches_union_find(mask):
    want, n_want = label_components(mask)
    got, n_got = kernels.label_components(mask)
    assert n_got == n_want
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(_masks(), st.sampled_from([0.0, 1.0, 2.0, 3.5, 12.0]))
def test_polygonize_full_matches_pixel_tracer(mask, min_area):
    _same_polys(kernels.polygonize_full(mask, min_area), polygonize_full(mask, min_area))


@settings(max_examples=200, deadline=None)
@given(_masks())
def test_trace_loops_matches_pixel_tracer(mask):
    labels, n = label_components(mask)
    lab, offsets, corners = kernels._trace_loops(labels)
    got = np.split(corners, offsets[1:-1]) if len(lab) else []
    want = [(i, ring) for i in range(1, n + 1) for ring in _trace_loops(labels == i)]
    assert lab.tolist() == [i for i, _ in want]
    for a, (_, b) in zip(got, want):
        assert np.array_equal(a, b)


# --- degenerate inputs --------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rasterize_rings_names_non_finite_ring(bad):
    sq = [[1.0, 1.0], [5.0, 1.0], [5.0, 5.0], [1.0, 5.0]]
    coords = np.array(sq + sq + sq)
    coords[6, 1] = bad
    with pytest.raises(ValueError, match="ring 1 "):
        kernels.rasterize_rings(coords, np.array([0, 4, 8, 12]), (8, 8))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_mask_labels_and_polygons(shape):
    mask = np.zeros(shape, dtype=bool)
    labels, n = kernels.label_components(mask)
    assert n == 0 and labels.shape == shape and labels.dtype == np.int32
    assert kernels.polygonize_full(mask) == []


def test_all_zero_mask_has_no_polygons():
    mask = np.zeros((6, 9), dtype=np.uint8)
    assert kernels.label_components(mask > 0)[1] == 0
    assert kernels.polygonize_full(mask) == []


# --- the mask layer -------------------------------------------------------------


def _per_tile(bucket: pa.Table, **kw) -> pa.Table:
    """The per-tile path the bucket kernel replaced: ``per_key`` over the
    reference ``tile_masks``."""
    return per_key("tile_id", lambda g: tile_masks(g, **kw))(bucket)


def _features(**cols) -> pa.Table:
    n = len(cols["xs"])
    cols.setdefault("image_id", ["i"] * n)
    return pa.table({
        **{c: cols[c] for c in ("tile_id", "image_id", "class")},
        "xs": pa.array(cols["xs"], pa.list_(pa.float64())),
        "ys": pa.array(cols["ys"], pa.list_(pa.float64())),
        **{c: pa.array(cols[c], pa.float64()) for c in ("x0", "y0", "x1", "y1")},
    })


@pytest.fixture(scope="module", params=[1, 2, 3])
def synth_joined(request) -> pa.Table:
    """The joined label rows of 16 synth images (about 60 tiles of 128 px,
    buildings and roads)."""
    images, features = synth.gen_shard(np.arange(16), 16, seed=request.param, size=256)
    pack, buckets, res = build_join_index(features)
    return join_tile_batch_to_pack(tiler.plan_tiles(images, tile_size=128), pack, buckets, res, 0.0)


def test_tile_masks_matches_per_tile_reference_on_synth(synth_joined):
    """One bucket holding every tile of a synth corpus (more than one
    chunk) gives byte-identical mask rows to one reference call per tile."""
    assert masks.tile_masks(synth_joined).equals(_per_tile(synth_joined))


def test_tile_masks_pixels_equal_the_reference_through_png_encode(synth_joined):
    """The byte checks compare two calls of one mask encoder; decoded, the
    bucket kernel's masks are the pixels of a reference that encodes each
    mask with ``codec.png_encode``, and every other column is equal."""
    with mock.patch.object(codec, "png_encode_masks", lambda s: [codec.png_encode(m) for m in s]):
        want = _per_tile(synth_joined)
    got = masks.tile_masks(synth_joined)
    names = ["footprint", "boundary", "contact", "road"]
    assert got.drop_columns(names).equals(want.drop_columns(names))
    for name in names:
        for a, b in zip(got[name].to_pylist(), want[name].to_pylist(), strict=True):
            assert np.array_equal(codec.png_decode(a), codec.png_decode(b))


def test_instance_masks_match_per_row_reference_on_synth(ray_session, synth_joined):
    """``instance_masks`` converts every row of a batch to pixels in one
    pass; each row's mask is the per-row conversion's."""
    import ray

    got = masks.instance_masks(ray.data.from_arrow(synth_joined)).to_arrow_refs()
    got = pa.concat_tables(ray.get(got)).sort_by([("tile_id", "ascending"), ("feature_id", "ascending")])
    rows = synth_joined.sort_by([("tile_id", "ascending"), ("feature_id", "ascending")]).to_pylist()
    assert got.num_rows == len(rows)
    for r, mask, n_px in zip(rows, got["mask"].to_pylist(), got["mask_px"].to_pylist()):
        px, py = (r["x1"] - r["x0"]) / 128, (r["y1"] - r["y0"]) / 128
        coords, offsets = _to_pixel_rings([r["xs"]], [r["ys"]], r["x0"], r["y1"], px, py)
        want = kernels.rasterize_rings(coords, offsets, (128, 128), values=255)
        assert mask == codec.png_encode_masks(want[None])[0] and n_px == int((want > 0).sum())


# pixel coordinates on a half-pixel grid: the geo -> pixel arithmetic and
# every ring area is exact, so a ring's orientation never rests on rounding
_half = st.integers(-8, 56).map(lambda k: k / 2)


@st.composite
def _feature(draw):
    kind = draw(st.sampled_from(["rect", "L", "poly", "road"]))
    if kind == "rect":
        x, y = draw(_half), draw(_half)
        dx, dy = draw(st.integers(1, 24).map(lambda k: k / 2)), draw(st.integers(1, 24).map(lambda k: k / 2))
        ring = [(x, y), (x + dx, y), (x + dx, y + dy), (x, y + dy)]
    elif kind == "L":
        x, y, a = draw(_half), draw(_half), draw(st.integers(2, 8))
        ring = [(x, y), (x + 2 * a, y), (x + 2 * a, y + a), (x + a, y + a), (x + a, y + 2 * a), (x, y + 2 * a)]
    else:  # any polygon (concave, degenerate or self-crossing) or a road line
        lo = 2 if kind == "road" else 3
        ring = draw(st.lists(st.tuples(_half, _half), min_size=lo, max_size=6))
    if draw(st.booleans()):
        ring = ring[::-1]
    return ("road" if kind == "road" else "building"), ring


@st.composite
def _bucket(draw):
    """Rows of 0-5 tiles in shuffled order, each with its own geo bounds
    and pixel size; some tiles hold roads only, some one feature."""
    ts = draw(st.sampled_from([8, 16, 24]))
    rows = []
    for t in range(draw(st.integers(0, 5))):
        scale = draw(st.sampled_from([0.5, 1.0, 2.0]))
        gx, gy = draw(st.integers(-3, 3)) * ts * scale, draw(st.integers(-3, 3)) * ts * scale
        top = gy + ts * scale
        feats = draw(st.lists(_feature(), min_size=1, max_size=5))
        if draw(st.integers(0, 4)) == 0:
            feats = [("road", r) for _, r in feats]
        for klass, ring in feats:
            rows.append((f"t{t}", f"i{t % 2}", klass, [gx + x * scale for x, _ in ring],
                         [top - y * scale for _, y in ring], gx, gy, gx + ts * scale, top))
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    names = ("tile_id", "image_id", "class", "xs", "ys", "x0", "y0", "x1", "y1")
    return ts, _features(**{c: [r[i] for r in rows] for i, c in enumerate(names)})


@settings(max_examples=150, deadline=None)
@given(_bucket(), st.sampled_from(["inner", "outer"]), st.sampled_from([1, 2, 3, 5]),
       st.sampled_from([1, 4, 10]), st.sampled_from([1, 4, 5]), st.sampled_from([1, 2, None]))
def test_tile_masks_bucket_matches_per_tile_reference(bucket, boundary_type, boundary_width,
                                                      contact_spacing, road_width, chunk_tiles):
    """Concave rings, road-only tiles, single-feature and empty buckets,
    both boundary types, non-default widths, and buckets spanning several
    chunks: byte-identical to the per-tile reference."""
    ts, rows = bucket
    kw = dict(tile_size=ts, boundary_type=boundary_type, boundary_width=boundary_width,
              contact_spacing=contact_spacing, road_width=road_width)
    pixels = chunk_tiles * ts * ts if chunk_tiles else masks.CHUNK_PIXELS
    with mock.patch.object(masks, "CHUNK_PIXELS", pixels):
        got = masks.tile_masks(rows, **kw)
    want = _per_tile(rows, **kw)
    assert got.schema == masks.MASK_SCHEMA
    assert got.equals(want)


def test_tile_masks_single_feature_and_empty_buckets():
    one = _features(tile_id=["t"], **{"class": ["building"]}, xs=[[1.0, 6.0, 6.0, 1.0]],
                    ys=[[2.0, 2.0, 9.0, 9.0]], x0=[0.0], y0=[0.0], x1=[16.0], y1=[16.0])
    got = masks.tile_masks(one, tile_size=16)
    assert got.num_rows == 1 and got.equals(tile_masks(one, tile_size=16))
    empty = masks.tile_masks(one.slice(0, 0), tile_size=16)
    assert empty.num_rows == 0 and empty.schema == masks.MASK_SCHEMA


_rect = st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(1, 20), st.integers(1, 20))


@settings(max_examples=60, deadline=None)
@given(st.lists(_rect, min_size=2, max_size=6), st.booleans(), st.sampled_from([4, 10]))
def test_tile_masks_contact_matches_per_feature_cover(rects, concave, spacing):
    """``tile_masks``' contact mask: convex rings counted from one span
    table, a concave (L-shaped) ring still dilated alone."""
    ts = 48
    xs = [[x, x + dx, x + dx, x] for x, _, dx, _ in rects]
    ys = [[y, y, y + dy, y + dy] for _, y, _, dy in rects]
    if concave:
        xs.append([10.0, 30.0, 30.0, 20.0, 20.0, 10.0])
        ys.append([10.0, 10.0, 20.0, 20.0, 30.0, 30.0])
    n = len(xs)
    group = _features(tile_id=["t"] * n, **{"class": ["building"] * n}, xs=xs, ys=ys,
                      x0=[0.0] * n, y0=[0.0] * n, x1=[float(ts)] * n, y1=[float(ts)] * n)
    out = masks.tile_masks(group, tile_size=ts, contact_spacing=spacing)
    footprint = codec.decode(out["footprint"][0].as_py(), "png")
    coords, offsets = _to_pixel_rings(xs, ys, 0.0, float(ts), 1.0, 1.0)
    want = _contact_by_feature(coords, offsets, footprint, (ts, ts), max(1, round(spacing / 2)))
    assert np.array_equal(codec.decode(out["contact"][0].as_py(), "png") > 0, want)


def _contact_by_feature(coords, offsets, footprint, shape, k):
    """The per-feature contact cover the span table replaced: one
    rasterize per buffered ring, dilation for a non-convex one."""
    cover = np.zeros(shape, dtype=np.int16)
    for i in range(len(offsets) - 1):
        ring = coords[offsets[i] : offsets[i + 1]]
        if _is_convex(ring):
            buf = buffer_convex(ring, float(k))
            cover += rasterize_rings(buf, np.asarray([0, len(buf)]), shape, values=1).astype(np.int16)
        else:
            one = rasterize_rings(ring, np.asarray([0, len(ring)]), shape, values=1)
            cover += dilate_square(one, 2 * k + 1).astype(np.int16)
    return (cover >= 2) & (footprint == 0)


def test_tile_masks_names_non_finite_ring():
    """A NaN footprint coordinate names its tile and its ring: the index
    among the tile's non-road rows, as the per-tile kernel counted."""
    sq_x, sq_y = [1.0, 5.0, 5.0, 1.0], [1.0, 1.0, 5.0, 5.0]
    rows = _features(tile_id=["a", "b", "b", "b"], **{"class": ["building", "building", "road", "building"]},
                     xs=[sq_x, sq_x, [0.0, 8.0], [1.0, 5.0, np.nan, 1.0]], ys=[sq_y, sq_y, [4.0, 4.0], sq_y],
                     x0=[0.0] * 4, y0=[0.0] * 4, x1=[8.0] * 4, y1=[8.0] * 4)
    with pytest.raises(ValueError, match="tile 'b': ring 1 "):
        masks.tile_masks(rows, tile_size=8)
    road = rows.slice(0, 3).set_column(3, "xs", pa.array([sq_x, sq_x, [0.0, np.inf]], pa.list_(pa.float64())))
    with pytest.raises(ValueError, match="tile 'b': line 0 "):
        masks.tile_masks(road, tile_size=8)


_pt = st.tuples(st.floats(-6.0, 40.0, allow_nan=False), st.floats(-6.0, 40.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.one_of(_pt, st.tuples(_half, _half)), max_size=5), max_size=5),
       st.tuples(st.integers(1, 40), st.integers(1, 40)), st.integers(1, 255))
# 49 * (1 / 49) < 1: only the exact last sample reaches column 25
@example([[(0.5, 0.5), (25.0, 0.5)]], (4, 30), 1)
def test_rasterize_lines_matches_segment_loop(lines, shape, value):
    """One packed sampling pass burns exactly the per-segment
    ``np.linspace`` loop's pixels."""
    coords = np.array([p for ln in lines for p in ln], dtype=np.float64).reshape(-1, 2)
    offsets = np.cumsum([0] + [len(ln) for ln in lines]).astype(np.int64)
    want = rasterize_lines(coords, offsets, shape, value=value)
    got = kernels.rasterize_lines(coords, offsets, shape, value=value)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9), st.integers(1, 6),
       st.sampled_from([np.uint8, np.int64, bool]), st.data())
def test_morphology_on_a_stack_matches_sliding_window(n, h, w, k, dtype, data):
    """Running min/max over shifted slices of a ``(n, h, w)`` stack equals
    the sliding-window filter applied to each image on its own."""
    stack = data.draw(arrays(dtype, (n, h, w), elements=st.integers(0, 3).map(dtype)))
    for ours, ref in ((kernels.erode_square, erode_square), (kernels.dilate_square, dilate_square)):
        got = ours(stack, k)
        assert got.dtype == stack.dtype
        for i in range(n):
            assert np.array_equal(got[i], ref(stack[i], k))
        assert np.array_equal(ours(stack[0], k), ref(stack[0], k))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(_half, _half), max_size=7), max_size=6),
       st.sampled_from([0.5, 1.0, 3.0, 5.0]))
def test_buffer_rings_and_ring_convex_match_per_ring_loops(rings, dist):
    """``buffer_rings`` equals ``buffer_convex``'s old per-vertex loop on
    every ring (convex or not, either orientation), and ``ring_convex``
    equals ``_is_convex``."""
    rings = [np.array(r, dtype=np.float64).reshape(-1, 2) for r in rings]
    coords = np.concatenate([np.empty((0, 2))] + rings)
    offsets = np.cumsum([0] + [len(r) for r in rings]).astype(np.int64)
    assert poly.ring_convex(coords, offsets).tolist() == [_is_convex(r) for r in rings]
    got = poly.buffer_rings(coords, offsets, dist)
    for r, a, b in zip(rings, offsets[:-1], offsets[1:]):
        if len(r):
            assert np.array_equal(got[a:b], buffer_convex(r, dist))
            assert np.array_equal(poly.buffer_convex(r, dist), buffer_convex(r, dist))
