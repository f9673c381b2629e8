"""The whole-array label-path kernels against the loop kernels they
replaced.

``rasterize_rings``/``_fill_ring``, ``label_components``,
``_trace_loops`` and ``polygonize_full`` below are the earlier
one-edge, one-run and one-pixel-at-a-time loops, kept verbatim as
test-only references.  Hypothesis checks that the array kernels in
``solaris_ray.raster.kernels`` give bit-identical results: the same
pixels, labels, ring vertices, ring order, start corners and pinch
choices.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from solaris_ray.geom.poly import buffer_convex
from solaris_ray.raster import codec, kernels
from solaris_ray.stages import masks

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


def _contact_by_feature(coords, offsets, footprint, shape, k):
    """The per-feature contact cover the span table replaced: one
    rasterize per buffered ring, dilation for a non-convex one."""
    cover = np.zeros(shape, dtype=np.int16)
    for i in range(len(offsets) - 1):
        ring = coords[offsets[i] : offsets[i + 1]]
        if masks._is_convex(ring):
            buf = buffer_convex(ring, float(k))
            cover += rasterize_rings(buf, np.asarray([0, len(buf)]), shape, values=1).astype(np.int16)
        else:
            one = rasterize_rings(ring, np.asarray([0, len(ring)]), shape, values=1)
            cover += kernels.dilate_square(one, 2 * k + 1).astype(np.int16)
    return (cover >= 2) & (footprint == 0)


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
    group = pa.table({
        "tile_id": ["t"] * n, "image_id": ["i"] * n, "class": ["building"] * n,
        "xs": pa.array(xs, pa.list_(pa.float64())), "ys": pa.array(ys, pa.list_(pa.float64())),
        "x0": [0.0] * n, "y0": [0.0] * n, "x1": [float(ts)] * n, "y1": [float(ts)] * n,
    })
    out = masks.tile_masks(group, tile_size=ts, contact_spacing=spacing)
    footprint = codec.decode(out["footprint"][0].as_py(), "png")
    coords, offsets = masks._to_pixel_rings(xs, ys, 0.0, float(ts), 1.0, 1.0)
    want = _contact_by_feature(coords, offsets, footprint, (ts, ts), max(1, round(spacing / 2)))
    assert np.array_equal(codec.decode(out["contact"][0].as_py(), "png") > 0, want)


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
    got = kernels._trace_loops(labels)
    want = [(i, ring) for i in range(1, n + 1) for ring in _trace_loops(labels == i)]
    assert [i for i, _ in got] == [i for i, _ in want]
    for (_, a), (_, b) in zip(got, want):
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
