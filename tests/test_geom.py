"""Unit tests for the pure-numpy geometry kernels.

Mirrors the reference's geometry unit tests
(/root/reference/tests/test_utils/test_geo.py,
tests/test_eval/iou_test.py) in style: small literal fixtures with
exact / epsilon-bounded expectations.
"""

import numpy as np
import pytest

from solaris_ray.geom.affine import (
    Affine,
    apply_affine,
    compose,
    invert_affine,
    list_to_affine,
)
from solaris_ray.geom import cells
from solaris_ray.geom.poly import (
    box_iou,
    clip_ring_to_box,
    intersection_area,
    points_in_polygon,
    polygon_iou,
    ring_areas,
    ring_bboxes,
    ring_centroids,
    ring_lengths,
)
from solaris_ray.geom.wkt import (
    dump_wkt_batch,
    parse_wkt_batch,
    wkb_decode,
    wkb_encode_polygon,
    wkb_decode_batch,
    wkb_encode_batch,
)


# Same transform as the reference fixture Affine(0.5, 0, 733601, 0, -0.5, 3725139)
# (/root/reference/tests/test_utils/test_geo.py:27)
REF_AFFINE = Affine(0.5, 0.0, 733601.0, 0.0, -0.5, 3725139.0)


class TestAffine:
    def test_list_to_affine_rasterio_order(self):
        # rasterio order: offsets at slots 2 and 5
        t = list_to_affine([0.5, 0.0, 733601.0, 0.0, -0.5, 3725139.0])
        assert t == REF_AFFINE

    def test_list_to_affine_gdal_order(self):
        # GDAL order: (c, a, b, f, d, e) — solaris/utils/geo.py:392-411
        t = list_to_affine([733601.0, 0.5, 0.0, 3725139.0, 0.0, -0.5])
        assert t == REF_AFFINE

    def test_apply_and_invert_roundtrip(self):
        cols = np.array([0.0, 10.0, 900.0])
        rows = np.array([0.0, 20.0, 900.0])
        x, y = apply_affine(REF_AFFINE, cols, rows)
        assert x[0] == 733601.0 and y[0] == 3725139.0
        inv = invert_affine(REF_AFFINE)
        c2, r2 = apply_affine(inv, x, y)
        np.testing.assert_allclose(c2, cols, atol=1e-9)
        np.testing.assert_allclose(r2, rows, atol=1e-9)

    def test_compose_is_identity_with_inverse(self):
        ident = compose(REF_AFFINE, invert_affine(REF_AFFINE))
        np.testing.assert_allclose(ident, Affine.identity(), atol=1e-6)


class TestCells:
    def test_point_cell_roundtrip(self):
        c = cells.cell_of_point(np.array([1000.0]), np.array([2000.0]), res=10)
        x0, y0, x1, y1 = cells.cell_bounds(c)
        assert x0[0] <= 1000.0 < x1[0]
        assert y0[0] <= 2000.0 < y1[0]

    def test_cover_bbox_counts(self):
        edge = cells.cell_edge(12)
        got = cells.cover_bbox(0.0, 0.0, 2.5 * edge, 1.5 * edge, res=12)
        assert len(got) == 3 * 2

    def test_cover_bboxes_vectorized_matches_scalar(self):
        edge = cells.cell_edge(12)
        boxes = np.array(
            [[0.0, 0.0, 2.5 * edge, 1.5 * edge], [10.0, 10.0, 20.0, 20.0]]
        )
        rows, cc = cells.cover_bboxes(boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3], res=12)
        got0 = sorted(cc[rows == 0].tolist())
        want0 = sorted(cells.cover_bbox(*boxes[0], res=12).tolist())
        assert got0 == want0
        assert (rows == 1).sum() == 1

    def test_parent_child(self):
        c = cells.cell_of_point(np.array([5000.0]), np.array([5000.0]), res=14)[0]
        p = cells.cell_parent(np.array([c]), 12)[0]
        kids = set()
        for k in cells.cell_children(int(p)):
            kids.update(cells.cell_children(int(k)).tolist())
        assert int(c) in kids

    def test_neighbors_ring(self):
        c = int(cells.cell_of_point(np.array([5000.0]), np.array([5000.0]), res=10)[0])
        ring1 = cells.neighbors(c, 1)
        assert len(ring1) == 9 and c in ring1.tolist()
        assert len(cells.neighbors(c, 2)) == 25


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestPoly:
    def test_areas_lengths_bbox_centroid(self):
        tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        coords = np.vstack([UNIT_SQUARE, tri])
        offsets = np.array([0, 4, 7], dtype=np.int64)
        np.testing.assert_allclose(ring_areas(coords, offsets), [1.0, 6.0])
        np.testing.assert_allclose(ring_lengths(coords, offsets), [4.0, 12.0])
        np.testing.assert_allclose(ring_bboxes(coords, offsets)[1], [0, 0, 4, 3])
        np.testing.assert_allclose(ring_centroids(coords, offsets)[0], [0.5, 0.5])

    def test_points_in_polygon(self):
        px = np.array([0.5, 1.5, 0.999, -0.1])
        py = np.array([0.5, 0.5, 0.001, 0.5])
        got = points_in_polygon(px, py, UNIT_SQUARE)
        assert got.tolist() == [True, False, True, False]

    def test_clip_ring_to_box_partial(self):
        big = UNIT_SQUARE * 4.0  # 4x4 square
        clipped = clip_ring_to_box(big, 2.0, 2.0, 10.0, 10.0)
        # remaining area should be 2x2 = 4
        offs = np.array([0, len(clipped)], dtype=np.int64)
        np.testing.assert_allclose(ring_areas(clipped, offs), [4.0])

    def test_clip_ring_outside_is_empty(self):
        assert len(clip_ring_to_box(UNIT_SQUARE, 5, 5, 6, 6)) == 0

    def test_convex_intersection_and_iou(self):
        a = UNIT_SQUARE
        b = UNIT_SQUARE + 0.5  # overlap area 0.25, union 1.75
        assert intersection_area(a, b) == pytest.approx(0.25)
        assert polygon_iou(a, b) == pytest.approx(0.25 / 1.75)
        assert polygon_iou(a, a) == pytest.approx(1.0)
        assert polygon_iou(a, UNIT_SQUARE + 10.0) == 0.0

    def test_box_iou_matches_polygon_iou(self):
        boxes_a = np.array([[0, 0, 1, 1], [0, 0, 2, 2]], dtype=float)
        boxes_b = np.array([[0.5, 0.5, 1.5, 1.5]], dtype=float)
        m = box_iou(boxes_a, boxes_b)
        assert m[0, 0] == pytest.approx(0.25 / 1.75)
        poly_b = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])
        assert m[0, 0] == pytest.approx(polygon_iou(UNIT_SQUARE, poly_b))


class TestWkt:
    def test_parse_dump_roundtrip(self):
        wkts = [
            "POLYGON ((0 0, 1 0, 1 1, 0 1, 0 0))",
            "POLYGON ((733601 3725139, 733610 3725139, 733610 3725130, 733601 3725139))",
        ]
        coords, offsets, types = parse_wkt_batch(wkts)
        assert types == ["POLYGON", "POLYGON"]
        assert offsets.tolist() == [0, 4, 7]
        out = dump_wkt_batch(coords, offsets)
        coords2, offsets2, _ = parse_wkt_batch(out)
        np.testing.assert_allclose(coords2, coords)

    def test_parse_linestring_point(self):
        coords, offsets, types = parse_wkt_batch(
            ["LINESTRING (0 0, 5 5, 10 0)", "POINT (3 4)"]
        )
        assert types == ["LINESTRING", "POINT"]
        assert offsets.tolist() == [0, 3, 4]

    def test_wkb_roundtrip(self):
        ring = UNIT_SQUARE * 3.5
        gtype, back = wkb_decode(wkb_encode_polygon(ring))
        assert gtype == "POLYGON"
        np.testing.assert_allclose(back, ring)

    def test_wkb_batch_roundtrip(self):
        coords = np.vstack([UNIT_SQUARE, UNIT_SQUARE + 5.0])
        offsets = np.array([0, 4, 8], dtype=np.int64)
        bufs = wkb_encode_batch(coords, offsets)
        c2, o2 = wkb_decode_batch(bufs)
        np.testing.assert_allclose(c2, coords)
        assert o2.tolist() == offsets.tolist()


def test_buffer_convex_square():
    import numpy as np

    from solaris_ray.geom.poly import buffer_convex, ring_areas

    sq = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    buf = buffer_convex(sq, 2.0)
    # miter-offset square grows to 14x14
    area = float(ring_areas(buf.reshape(-1, 2), np.array([0, len(buf)]))[0])
    assert abs(area - 14 * 14) < 1e-9
    assert abs(buf[:, 0].min() + 2.0) < 1e-9 and abs(buf[:, 0].max() - 12.0) < 1e-9
    # clockwise input buffers identically (orientation-normalized)
    buf2 = buffer_convex(sq[::-1], 2.0)
    a2 = float(ring_areas(buf2.reshape(-1, 2), np.array([0, len(buf2)]))[0])
    assert abs(a2 - 196.0) < 1e-9


def test_internal_intersection_pairs():
    import numpy as np

    from solaris_ray.geom.poly import internal_intersection_pairs

    # two squares 4 apart: disjoint raw, overlapping after buffer 3
    a = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    b = a + np.array([14.0, 0.0])
    c = a + np.array([100.0, 100.0])
    coords = np.concatenate([a, b, c])
    offsets = np.array([0, 4, 8, 12])
    assert internal_intersection_pairs(coords, offsets) == []
    pairs = internal_intersection_pairs(coords, offsets, buffer_dist=3.0)
    assert len(pairs) == 1 and pairs[0][:2] == (0, 1)
    # buffered overlap: squares grow to 16 wide, gap 4 -> overlap 2 wide x 16 tall
    assert abs(pairs[0][2] - 2 * 16) < 1e-9
