"""Exact polygon IoU: concave footprints and parity with the scalar clipper.

Concave cases use rectilinear footprints with integer vertices (L, U
and T shapes), so counting the unit cells two shapes cover gives the
exact intersection and union — the oracle needs no geometry library.

The scalar Sutherland–Hodgman clipper and the per-pair greedy matcher
that the batched kernel replaced live on here as references
(``_ref_*``): on convex inputs the batched IoU must agree with them.
"""

import numpy as np
import pyarrow.compute as pc
import pytest

from solaris_ray.geom.poly import polygon_iou
from solaris_ray.stages import evaluate


def _rect_cells(x0, y0, x1, y1):
    return {(i, j) for i in range(x0, x1) for j in range(y0, y1)}


# (CCW integer ring, unit cells it covers)
SHAPES = {
    "square": (np.array([[0, 0], [4, 0], [4, 4], [0, 4]], float), _rect_cells(0, 0, 4, 4)),
    # 4x4 square minus its 2x2 top-right corner
    "L": (
        np.array([[0, 0], [4, 0], [4, 2], [2, 2], [2, 4], [0, 4]], float),
        _rect_cells(0, 0, 4, 2) | _rect_cells(0, 2, 2, 4),
    ),
    "U": (
        np.array([[0, 0], [6, 0], [6, 4], [4, 4], [4, 2], [2, 2], [2, 4], [0, 4]], float),
        _rect_cells(0, 0, 6, 2) | _rect_cells(0, 2, 2, 4) | _rect_cells(4, 2, 6, 4),
    ),
    "T": (
        np.array([[2, 0], [4, 0], [4, 2], [6, 2], [6, 4], [0, 4], [0, 2], [2, 2]], float),
        _rect_cells(2, 0, 4, 2) | _rect_cells(0, 2, 6, 4),
    ),
}


def _shifted(name, dx, dy):
    ring, cells = SHAPES[name]
    return ring + [dx, dy], {(i + dx, j + dy) for i, j in cells}


def _cell_iou(ca, cb):
    return len(ca & cb) / len(ca | cb)


# --- references: the scalar clipper and per-pair matcher ----------------

def _ref_clip_by_halfplane(poly, p0, p1):
    if len(poly) == 0:
        return poly
    d = (p1[0] - p0[0]) * (poly[:, 1] - p0[1]) - (p1[1] - p0[1]) * (poly[:, 0] - p0[0])
    inside = d >= -1e-12
    if inside.all():
        return poly
    pieces = []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        if inside[i]:
            pieces.append(poly[i])
            if not inside[j]:
                t = d[i] / (d[i] - d[j])
                pieces.append(poly[i] + t * (poly[j] - poly[i]))
        elif inside[j]:
            t = d[i] / (d[i] - d[j])
            pieces.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(pieces, dtype=np.float64).reshape(-1, 2)


def _ref_ccw(ring):
    x, y = ring[:, 0], ring[:, 1]
    a = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    return ring if a >= 0 else ring[::-1]


def _ref_convex_intersection_area(a, b):
    """Exact only for convex ``b``."""
    if len(a) < 3 or len(b) < 3:
        return 0.0
    origin = a[0].copy()
    a = np.asarray(a, dtype=np.float64) - origin
    b = _ref_ccw(np.asarray(b, dtype=np.float64) - origin)
    out = a
    n = len(b)
    for i in range(n):
        out = _ref_clip_by_halfplane(out, b[i], b[(i + 1) % n])
        if len(out) == 0:
            return 0.0
    x, y = out[:, 0], out[:, 1]
    return float(abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)) * 0.5)


def _ref_polygon_iou(a, b):
    inter = _ref_convex_intersection_area(a, b)
    if inter == 0.0:
        return 0.0
    o = a[0]
    ax, ay = a[:, 0] - o[0], a[:, 1] - o[1]
    bx, by = b[:, 0] - o[0], b[:, 1] - o[1]
    area_a = abs(np.sum(ax * np.roll(ay, -1) - np.roll(ax, -1) * ay)) * 0.5
    area_b = abs(np.sum(bx * np.roll(by, -1) - np.roll(bx, -1) * by)) * 0.5
    union = area_a + area_b - inter
    return float(inter / union) if union > 0 else 0.0


def _ref_greedy_match_group(prop_ids, prop_conf, prop_rings, gt_ids, gt_rings, miniou=0.5):
    order = np.lexsort((prop_ids, -prop_conf))
    n = len(order)
    matched = np.full(n, -1, dtype=np.int64)
    ious = np.zeros(n, dtype=np.float64)
    is_tp = np.zeros(n, dtype=np.int8)
    inv = np.argsort(order)
    if len(gt_ids) == 0:
        return matched[inv], ious[inv], is_tp[inv]
    gt_bbox = np.asarray([[r[:, 0].min(), r[:, 1].min(), r[:, 0].max(), r[:, 1].max()]
                          for r in gt_rings])
    alive = np.ones(len(gt_ids), dtype=bool)
    for oi, pi in enumerate(order.tolist()):
        ring = prop_rings[pi]
        bx0, by0 = ring[:, 0].min(), ring[:, 1].min()
        bx1, by1 = ring[:, 0].max(), ring[:, 1].max()
        cand = np.nonzero(alive & (gt_bbox[:, 0] < bx1) & (gt_bbox[:, 2] > bx0)
                          & (gt_bbox[:, 1] < by1) & (gt_bbox[:, 3] > by0))[0]
        best_iou, best_j = 0.0, -1
        for j in cand.tolist():
            v = _ref_polygon_iou(ring, gt_rings[j])
            if v > best_iou + 1e-15:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou > miniou:
            alive[best_j] = False
            matched[oi] = gt_ids[best_j]
            ious[oi] = best_iou
            is_tp[oi] = 1
        elif best_j >= 0:
            ious[oi] = best_iou
    return matched[inv], ious[inv], is_tp[inv]


# --- concave footprints --------------------------------------------------

def test_l_against_itself_is_one():
    ring = SHAPES["L"][0]
    assert polygon_iou(ring, ring) == pytest.approx(1.0, abs=1e-12)


def test_square_against_l_is_three_quarters():
    sq, lshape = SHAPES["square"][0], SHAPES["L"][0]
    assert polygon_iou(sq, lshape) == pytest.approx(0.75, abs=1e-12)
    assert polygon_iou(lshape, sq) == pytest.approx(0.75, abs=1e-12)


def test_perfect_l_proposal_is_one_true_positive():
    ring = SHAPES["L"][0] + [500000.0, 4000000.0]
    matched, ious, is_tp = evaluate.greedy_match_group(
        np.array([3], np.int64), np.array([0.9]), [ring], np.array([8], np.int64), [ring]
    )
    assert is_tp.tolist() == [1] and matched.tolist() == [8]
    assert ious[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("na", list(SHAPES))
@pytest.mark.parametrize("nb", list(SHAPES))
def test_rectilinear_iou_matches_cell_count(na, nb):
    a, ca = SHAPES[na]
    for dx in range(-6, 7, 2):
        for dy in range(-5, 6, 3):
            b, cb = _shifted(nb, dx, dy)
            want = _cell_iou(ca, cb)
            assert polygon_iou(a, b) == pytest.approx(want, abs=1e-12), (na, nb, dx, dy)
            # orientation of either ring does not matter
            assert polygon_iou(a[::-1], b[::-1]) == pytest.approx(want, abs=1e-12)


def test_concave_areas_at_utm_offsets():
    from solaris_ray.geom.poly import intersection_area

    off = np.array([512345.0, 4123456.0])
    for na in SHAPES:
        for nb in SHAPES:
            a, ca = SHAPES[na]
            b, cb = _shifted(nb, 1, -1)
            assert intersection_area(a + off, b + off) == pytest.approx(len(ca & cb), abs=1e-7)


def test_pair_overlaps_batches_mixed_pairs():
    from solaris_ray.geom.poly import pack_rings, pair_overlaps

    names = list(SHAPES)
    a_rings = [SHAPES[n][0] for n in names]
    b_rings, b_cells = zip(*[_shifted(n, 1, 1) for n in names])
    ia, ib = (g.ravel() for g in np.meshgrid(np.arange(4), np.arange(4), indexing="ij"))
    inter, iou = pair_overlaps(*pack_rings(a_rings), *pack_rings(list(b_rings)), ia, ib)
    for k, (i, j) in enumerate(zip(ia.tolist(), ib.tolist())):
        ca, cb = SHAPES[names[i]][1], b_cells[j]
        assert inter[k] == pytest.approx(len(ca & cb), abs=1e-12)
        assert iou[k] == pytest.approx(_cell_iou(ca, cb), abs=1e-12)


def test_pair_overlaps_degenerate_inputs():
    from solaris_ray.geom.poly import pack_rings, pair_overlaps

    sq = SHAPES["square"][0]
    segment = np.array([[0.0, 0.0], [3.0, 3.0]])
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # zero area
    coords, offsets = pack_rings([sq, segment, flat])
    none = np.zeros(0, np.int64)
    inter, iou = pair_overlaps(coords, offsets, coords, offsets, none, none)
    assert inter.shape == iou.shape == (0,)
    ia = np.array([0, 0, 1, 2, 0], np.int64)
    ib = np.array([1, 2, 0, 0, 0], np.int64)
    inter, iou = pair_overlaps(coords, offsets, coords, offsets, ia, ib)
    assert inter.tolist()[:4] == [0.0] * 4 and iou.tolist()[:4] == [0.0] * 4
    assert inter[4] == 16.0 and iou[4] == 1.0
    assert polygon_iou(np.zeros((0, 2)), sq) == 0.0 and polygon_iou(sq, segment) == 0.0


def test_internal_intersection_pairs_on_concave_rings():
    from solaris_ray.geom.poly import internal_intersection_pairs, pack_rings

    rings, cells = zip(*[_shifted(n, 3 * k, k % 2) for k, n in enumerate(["L", "U", "T", "L"])])
    coords, offsets = pack_rings(list(rings))
    got = internal_intersection_pairs(coords, offsets)
    want = [(i, j, float(len(cells[i] & cells[j])))
            for i in range(4) for j in range(i + 1, 4) if cells[i] & cells[j]]
    assert [(i, j) for i, j, _ in got] == [(i, j) for i, j, _ in want]
    assert np.allclose([a for *_, a in got], [a for *_, a in want], rtol=0, atol=1e-12)


def test_internal_intersection_pairs_buffers_convex_rings_in_one_call():
    """``buffer_dist > 0`` on convex rings (both orientations, UTM scale)
    gives the triples of buffering each ring alone first."""
    from solaris_ray.geom.poly import buffer_convex, internal_intersection_pairs, pack_rings

    rng = np.random.default_rng(5)
    base = np.array([5e5, 4.1e6])
    rings = [_random_convex(rng, base + rng.uniform(0, 60, 2)) for _ in range(40)]
    coords, offsets = pack_rings(rings)
    got = internal_intersection_pairs(coords, offsets, buffer_dist=2.5)
    want = internal_intersection_pairs(*pack_rings([buffer_convex(r, 2.5) for r in rings]))
    assert len(want) > 10 and got == want


def test_internal_intersection_pairs_refuses_to_buffer_a_concave_ring():
    from solaris_ray.geom.poly import internal_intersection_pairs, pack_rings

    coords, offsets = pack_rings([SHAPES["square"][0], _shifted("L", 3, 0)[0]])
    assert internal_intersection_pairs(coords, offsets)  # unbuffered: fine
    with pytest.raises(ValueError, match="ring 1 is concave"):
        internal_intersection_pairs(coords, offsets, buffer_dist=1.0)


# --- parity with the scalar references on convex inputs -----------------

def _convex_hull(pts):
    pts = sorted(map(tuple, pts))

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and ((out[-1][0] - out[-2][0]) * (p[1] - out[-2][1])
                                     - (out[-1][1] - out[-2][1]) * (p[0] - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = half(pts), half(pts[::-1])
    return np.asarray(lower[:-1] + upper[:-1])


def _random_convex(rng, center):
    if rng.random() < 0.5:
        w, h = rng.uniform(2, 30, 2)
        t = rng.uniform(0, np.pi)
        c, s = np.cos(t), np.sin(t)
        local = np.array([[-w, -h], [w, -h], [w, h], [-w, h]]) / 2
        ring = local @ np.array([[c, s], [-s, c]])
    else:
        ring = _convex_hull(rng.normal(0, 8, (int(rng.integers(3, 20)), 2)))
    if rng.random() < 0.5:
        ring = ring[::-1]
    return ring + center


def test_batched_iou_matches_scalar_reference_at_utm_scale():
    from solaris_ray.geom.poly import pack_rings, pair_overlaps

    rng = np.random.default_rng(11)
    base = np.array([5e5, 4.1e6])
    a = [_random_convex(rng, base + rng.uniform(0, 40, 2)) for _ in range(120)]
    b = [_random_convex(rng, base + rng.uniform(0, 40, 2)) for _ in range(120)]
    ia = rng.integers(0, 120, 600)
    ib = rng.integers(0, 120, 600)
    _, iou = pair_overlaps(*pack_rings(a), *pack_rings(b), ia, ib)
    ref = np.array([_ref_polygon_iou(a[i], b[j]) for i, j in zip(ia.tolist(), ib.tolist())])
    assert (ref > 0).sum() > 100  # the sample is not mostly disjoint pairs
    np.testing.assert_allclose(iou, ref, rtol=0, atol=1e-12)
    # the K=1 call is the same kernel
    for i, j in list(zip(ia.tolist(), ib.tolist()))[:50]:
        assert abs(polygon_iou(a[i], b[j]) - _ref_polygon_iou(a[i], b[j])) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_greedy_match_matches_reference_on_synth(seed):
    from solaris_ray.sources import synth

    images, feats = synth.gen_shard(np.arange(12), 12, seed, 256)
    buildings = feats.filter(pc.equal(feats["class"], "building"))
    props = synth.gen_proposals(feats, seed)

    def rings(t):
        return [np.stack([np.asarray(x), np.asarray(y)], axis=1)
                for x, y in zip(t["xs"].to_pylist(), t["ys"].to_pylist())]

    n_tp = 0
    for image_id in images["image_id"].to_pylist():
        p = props.filter(pc.equal(props["image_id"], image_id))
        g = buildings.filter(pc.equal(buildings["image_id"], image_id))
        args = (p["proposal_id"].to_numpy(), p["conf"].to_numpy(), rings(p),
                g["feature_id"].to_numpy(), rings(g))
        m, iou, tp = evaluate.greedy_match_group(*args)
        rm, riou, rtp = _ref_greedy_match_group(*args)
        assert m.tolist() == rm.tolist() and tp.tolist() == rtp.tolist()
        np.testing.assert_allclose(iou, riou, rtol=0, atol=1e-12)
        n_tp += int(tp.sum())
    assert n_tp > 0


def test_traced_staircase_rings_match_cell_count():
    """Rings traced from random blob masks (many reflex corners, rings
    that touch themselves at a vertex) against each other."""
    from solaris_ray.geom.poly import pack_rings, pair_overlaps, points_in_polygon
    from solaris_ray.raster.kernels import polygonize_full

    rng = np.random.default_rng(5)
    rings = []
    for _ in range(12):
        mask = np.zeros((16, 16), np.uint8)
        for _ in range(5):
            x0, y0 = rng.integers(0, 12, 2)
            w, h = rng.integers(1, 7, 2)
            mask[y0 : y0 + h, x0 : x0 + w] = 1
        rings += [ring + rng.integers(-2, 3, 2) for ring, holes in polygonize_full(mask) if not holes]
    cy, cx = np.mgrid[-4:22, -4:22] + 0.5
    cells = [points_in_polygon(cx.ravel(), cy.ravel(), r) for r in rings]
    assert max(len(r) for r in rings) >= 12  # real staircases, not just boxes
    ia, ib = (g.ravel() for g in np.meshgrid(np.arange(len(rings)), np.arange(len(rings))))
    inter, iou = pair_overlaps(*pack_rings(rings), *pack_rings(rings), ia, ib)
    want = np.array([(cells[i] & cells[j]).sum() for i, j in zip(ia, ib)], float)
    union = np.array([(cells[i] | cells[j]).sum() for i, j in zip(ia, ib)], float)
    np.testing.assert_allclose(inter, want, rtol=0, atol=1e-9)
    np.testing.assert_allclose(iou, want / union, rtol=0, atol=1e-12)
