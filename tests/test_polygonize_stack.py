"""The stacked polygonizer against the per-tile loop it replaced.

``MaskPolygonizer`` polygonizes a chunk of masks as one zero-separated
stack (``kernels.polygonize_stack``) and builds its rows as Arrow arrays
straight from the kernel's offsets.  ``per_tile`` below is the earlier
body: one ``polygonize_full`` per mask, a Python walk along every loop,
a shoelace per ring and Python lists per polygon, kept verbatim as a
test-only reference.  The stage output must be ``pa.Table.equals`` to
it: the same rows, ring vertices, ring order, areas and types.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from solaris_ray.raster import codec, kernels
from solaris_ray.sources import synth
from solaris_ray.stages import masks, tiler
from solaris_ray.stages import polygonize as pz
from solaris_ray.stages.joins import build_join_index, join_tile_batch_to_pack

# --- reference: the per-tile loop, verbatim -----------------------------------


def _trace_loops(labels: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """ALL boundary loops of every component of a label image, walked
    one segment at a time from each loop's smallest corner."""
    h, w = labels.shape
    p = np.zeros((h + 2, w + 2), dtype=bool)
    p[1:-1, 1:-1] = labels > 0
    fg = p[1:-1, 1:-1]
    r_t, a_t, b_t = kernels._runs(fg & ~p[:-2, 1:-1])
    c_r, a_r, b_r = kernels._runs((fg & ~p[1:-1, 2:]).T)
    r_b, a_b, b_b = kernels._runs(fg & ~p[2:, 1:-1])
    c_l, a_l, b_l = kernels._runs((fg & ~p[1:-1, :-2]).T)
    sx = np.concatenate((a_t, c_r + 1, b_b, c_l))
    sy = np.concatenate((r_t, a_r, r_b + 1, b_l))
    ex = np.concatenate((b_t, c_r + 1, a_b, c_l))
    ey = np.concatenate((r_t, b_r, r_b + 1, a_l))
    pix = np.concatenate((r_t * w + a_t, a_r * w + c_r, r_b * w + b_b - 1, (b_l - 1) * w + c_l))
    side = np.repeat(np.arange(4), (len(r_t), len(c_r), len(r_b), len(c_l)))
    lab = labels.ravel()[pix].astype(np.int64)
    dx, dy = np.sign(ex - sx), np.sign(ey - sy)
    skey = (lab * (w + 1) + sx) * (h + 1) + sy
    order = np.lexsort((side, pix, skey))
    ekey = (lab * (w + 1) + ex) * (h + 1) + ey
    sorted_key = skey[order]
    lo = np.searchsorted(sorted_key, ekey, side="left")
    two = np.searchsorted(sorted_key, ekey, side="right") - lo == 2
    first = order[lo]
    second = order[np.minimum(lo + 1, len(order) - 1)]
    left = dx * dy[first] - dy * dx[first] > 0
    succ = np.where(two & ~left, second, first).tolist()
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


def polygonize_full(mask: np.ndarray, min_area: float = 0.0) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """One mask's polygons: its own run table and loop trace."""
    row, c0, c1, label, n = kernels._run_table(mask > 0)
    if n == 0:
        return []
    area = np.bincount(label, weights=c1 - c0, minlength=n + 1)
    label[(area < min_area)[label]] = 0
    polys: list[tuple[np.ndarray, list[np.ndarray]]] = []
    last = 0
    for i, ring in _trace_loops(kernels._paint_runs(mask.shape, row, c0, c1, label)):
        if i == last:
            polys[-1][1].append(ring)
        else:
            polys.append((ring, []))
            last = i
    return polys


def _shoelace(ring: np.ndarray) -> float:
    x, y = ring[:, 0], ring[:, 1]
    return abs(float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))) / 2


def per_tile(batch: pa.Table, min_area: float = 0.0, simplify_tol: float = 0.0,
             mask_col: str = "mask", fmt: str = "png") -> pa.Table:
    """The per-tile ``MaskPolygonizer.__call__`` body."""
    out = {k: [] for k in pz.POLY_SCHEMA.names}
    for i in range(batch.num_rows):
        tid = batch["tile_id"][i].as_py()
        mask = codec.decode(batch[mask_col][i].as_py(), fmt)
        if mask.ndim == 3:
            mask = mask[:, :, 0]
        polys = polygonize_full(mask, min_area=min_area)
        for pi, (ring, holes) in enumerate(polys):
            if simplify_tol > 0:
                ring = kernels.simplify_ring(ring, simplify_tol)
                holes = [kernels.simplify_ring(hh, simplify_tol) for hh in holes]
            area = _shoelace(ring) - sum(_shoelace(hh) for hh in holes)
            out["tile_id"].append(tid)
            out["poly_id"].append(pi)
            out["xs"].append(ring[:, 0].tolist())
            out["ys"].append(ring[:, 1].tolist())
            out["hxs"].append([hh[:, 0].tolist() for hh in holes])
            out["hys"].append([hh[:, 1].tolist() for hh in holes])
            out["area_px"].append(area)
            out["n_verts"].append(len(ring))
            out["n_holes"].append(len(holes))
    return pa.table({k: pa.array(out[k], pz.POLY_SCHEMA.field(k).type) for k in pz.POLY_SCHEMA.names})


# --- inputs ---------------------------------------------------------------------


def _batch(mask_list) -> pa.Table:
    bufs = [codec.encode(m.astype(np.uint8) * 255 if m.dtype == bool else m, "png") for m in mask_list]
    return pa.table({"tile_id": pa.array([f"t{i:03d}" for i in range(len(bufs))], pa.string()),
                     "mask": pa.array(bufs, pa.binary())})


def _check(batch: pa.Table, chunk_pixels: int | None = None, **kw) -> pa.Table:
    """The stage output, at ``chunk_pixels`` per stack, equals the
    per-tile reference's."""
    with mock.patch.object(pz, "CHUNK_PIXELS", chunk_pixels or pz.CHUNK_PIXELS):
        got = pz.MaskPolygonizer(**kw)(batch)
    want = per_tile(batch, **kw)
    assert got.schema == pz.POLY_SCHEMA
    assert got.equals(want)
    return got


@pytest.fixture(scope="module")
def synth_masks() -> pa.Table:
    """The mask rows of 16 synth images: about 60 tiles of 128 px."""
    images, features = synth.gen_shard(np.arange(16), 16, seed=7, size=256)
    pack, buckets, res = build_join_index(features)
    joined = join_tile_batch_to_pack(tiler.plan_tiles(images, tile_size=128), pack, buckets, res, 0.0)
    return masks.tile_masks(joined)


@st.composite
def _mask(draw):
    """Random pixels, a block with holes and islands in them, diagonal
    pinches, or a full or empty mask."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "holes", "checker", "full", "empty"]))
    if kind == "random":
        return draw(arrays(bool, (h, w)))
    if kind == "holes":
        m = np.zeros((h, w), dtype=bool)
        m[h // 4 : h - h // 4, w // 4 : w - w // 4] = True
        return m & ~draw(arrays(bool, (h, w), elements=st.sampled_from([False] * 5 + [True])))
    if kind == "checker":
        yy, xx = np.indices((h, w))
        return ((yy + xx) % 2 == 0) ^ draw(arrays(bool, (h, w), elements=st.sampled_from([False] * 4 + [True])))
    return np.full((h, w), kind == "full")


# --- properties -----------------------------------------------------------------


@pytest.mark.parametrize("col", ["footprint", "boundary", "contact"])
@pytest.mark.parametrize("chunk_tiles", [1, 5, None])
def test_stacked_polygonizer_matches_per_tile_on_synth(synth_masks, col, chunk_tiles):
    """Every synth mask column, one tile per stack, several stacks and
    the default bound."""
    _check(synth_masks, chunk_tiles and chunk_tiles * 128 * 128, mask_col=col)


@settings(max_examples=150, deadline=None)
@given(st.lists(_mask(), max_size=9), st.sampled_from([0.0, 1.0, 3.5]), st.sampled_from([1, 60, 400, None]))
def test_stacked_polygonizer_matches_per_tile_on_mixed_sizes(mask_list, min_area, chunk_pixels):
    """Random batches of masks of mixed sizes (narrower masks padded on
    the right, shorter ones below), split into stacks of every size."""
    _check(_batch(mask_list), chunk_pixels, min_area=min_area)


def test_components_touching_every_tile_edge_stay_in_their_tile():
    """Full masks and frames stacked on each other: only the separator
    rows keep their components apart."""
    frame = np.ones((6, 7), dtype=bool)
    frame[2:4, 2:5] = False
    cross = np.zeros((5, 5), dtype=bool)
    cross[2, :] = cross[:, 2] = True
    batch = _batch([np.ones((6, 7), bool), frame, np.ones((3, 7), bool), cross, np.ones((6, 2), bool), frame])
    got = _check(batch)
    assert got["n_holes"].to_pylist() == [0, 1, 0, 0, 0, 1]
    assert got["area_px"].to_pylist() == [42.0, 36.0, 21.0, 9.0, 12.0, 36.0]


def test_holes_islands_and_pinch_corners():
    m = np.zeros((9, 9), dtype=bool)
    m[1:8, 1:8] = True
    m[2:7, 2:7] = False  # a hole
    m[4, 4] = True  # an island in it
    m[0, 0] = True  # touching the ring only at a corner: a pinch
    pinch = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=bool)
    got = _check(_batch([m, pinch, m]))
    assert got["poly_id"].to_pylist() == [0, 1, 2, 0, 1, 2, 3, 4, 0, 1, 2]


def test_all_empty_masks_and_min_area_removing_everything():
    empty = _batch([np.zeros((8, 8), bool), np.zeros((3, 5), bool)])
    assert _check(empty).num_rows == 0
    got = _check(_batch([np.ones((2, 2), bool), np.ones((3, 1), bool)]), min_area=5.0)
    assert got.num_rows == 0


def test_simplify_tol(synth_masks):
    stair = np.tril(np.ones((12, 12), dtype=bool))
    _check(_batch([stair, stair[:, ::-1]]), simplify_tol=1.0)
    _check(synth_masks.slice(0, 20), mask_col="footprint", simplify_tol=1.5)


def test_three_channel_masks():
    rgb = np.zeros((6, 8, 3), dtype=np.uint8)
    rgb[1:4, 2:7, 0] = 255
    rgb[:, :, 1] = 255  # only the first channel counts
    got = _check(_batch([rgb, rgb[:, :5]]))
    assert got["area_px"].to_pylist() == [15.0, 9.0]


def test_empty_batch():
    batch = _batch([]).slice(0, 0)
    got = _check(batch)
    assert got.num_rows == 0


def test_null_mask_names_tile_and_column():
    batch = pa.table({"tile_id": ["a", "b"],
                      "mask": pa.array([codec.encode(np.zeros((4, 4), np.uint8), "png"), None], pa.binary())})
    with pytest.raises(ValueError, match="tile 'b': null mask in column 'mask'"):
        pz.MaskPolygonizer()(batch)


@pytest.mark.parametrize("batch_size", [1, 7, 64, 242])
def test_masks_to_polygons_batch_sizes(ray_session, synth_masks, batch_size):
    """The Ray stage at every batch size gives the reference's rows."""
    import ray

    reps = [synth_masks.set_column(0, "tile_id", pa.array([f"{r}/{t}" for t in synth_masks["tile_id"].to_pylist()]))
            for r in range(5)]
    tbl = pa.concat_tables(reps).slice(0, 242)
    assert tbl.num_rows == 242
    got = pz.masks_to_polygons(ray.data.from_arrow(tbl), mask_col="footprint", min_area=4.0,
                               batch_size=batch_size)
    got = pa.concat_tables(ray.get(got.to_arrow_refs()))
    key = [("tile_id", "ascending"), ("poly_id", "ascending")]
    assert got.sort_by(key).equals(per_tile(tbl, mask_col="footprint", min_area=4.0).sort_by(key))
