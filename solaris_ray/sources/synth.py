"""Deterministic synthetic SpaceNet-style corpus (driver-mandated schema).

Generates the Lance-schema images table from BASELINE.json input_hint —
``(image_id: string, bytes: binary, w: int32, h: int32, fmt: string,
caption: string, phash: int64)`` — plus georeferencing sidecar columns
(allowed by FIXTURES.md §F1), a features table (building footprints +
road centerlines, FIXTURES.md §F2) and a proposals table (jittered
copies + spurious boxes, FIXTURES.md §F3).

Everything is a pure function of ``(n_images, seed)``: numpy
``default_rng([seed, i])`` per image, so any shard of the corpus can be
generated independently on any worker — this is what makes the corpus
"10^12-scalable": a trillion-image table is just ``n_images`` ranges
fanned out with ``ray.data.range(...).map_batches(gen_shard)``; no
generator state is shared.

Layout decisions for scale:
- image origins cluster around a few "city" centers so a small set of
  spatial cells holds 50-100x the median feature count (urban skew, the
  case the cell-salting shuffle path must handle — SURVEY.md §4).
- pixel content = gradient + seeded noise + burned-in footprints, so
  decoded tiles and mask kernels have real structure to verify against
  (PSNR, mask parity).
- fmt alternates png (lossless) / qnt (lossy) to exercise the
  PSNR >= 40 dB acceptance path; every 17th image duplicates the
  previous phash to exercise exact dedup (groupby(phash) first).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..geom.affine import Affine, apply_affine
from ..geom.wkt import dump_wkt_polygon
from ..raster.codec import encode
from ..raster.kernels import rasterize_rings

# Geo frame: UTM-ish metric CRS (reference fixtures use EPSG:32616 with
# Affine(0.5, 0, 733601, 0, -0.5, 3725139) — tests/test_utils/test_geo.py:27)
EPSG = 32616
PX = 0.5  # meters per pixel
CITY_CENTERS = [(733000.0, 3725000.0), (740000.0, 3730000.0), (750000.0, 3720000.0)]
URBAN_FRAC = 0.5  # fraction of images in city 0 (the hot cluster)


def image_params(i: int, n_images: int, seed: int) -> dict:
    """Deterministic per-image parameters (no pixel work)."""
    rng = np.random.default_rng([seed, i])
    if rng.random() < URBAN_FRAC:
        cx, cy = CITY_CENTERS[0]
        spread = 2000.0
        n_buildings = int(rng.integers(24, 64))
    else:
        cx, cy = CITY_CENTERS[1 + int(rng.integers(0, len(CITY_CENTERS) - 1))]
        spread = 8000.0
        n_buildings = int(rng.integers(1, 8))
    x0 = cx + float(rng.uniform(-spread, spread))
    y0 = cy + float(rng.uniform(-spread, spread))
    return {
        "rng": rng,
        "origin": (x0, y0),
        "n_buildings": n_buildings,
        "n_roads": int(rng.integers(0, 3)),
        "fmt": "png" if i % 2 == 0 else "qnt",
    }


def _convex_quad(rng: np.random.Generator, cx: float, cy: float, w: float, h: float, theta: float) -> np.ndarray:
    """A rotated rectangle (always convex) in pixel coords."""
    hw, hh = w / 2.0, h / 2.0
    base = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
    c, s = np.cos(theta), np.sin(theta)
    rot = base @ np.array([[c, -s], [s, c]])
    return rot + np.array([cx, cy])


def gen_image(i: int, n_images: int, seed: int, size: int = 256) -> tuple[dict, list[dict]]:
    """One image row + its feature rows.  Pure function of (i, seed, size)."""
    p = image_params(i, n_images, seed)
    rng = p["rng"]
    x0, y0 = p["origin"]
    transform = Affine.from_origin(x0, y0, PX, PX)

    # --- features in pixel space -----------------------------------------
    feats: list[dict] = []
    rings = []
    for b in range(p["n_buildings"]):
        bmax = min(40.0, size / 4.0)
        bw = float(rng.uniform(8, bmax))
        bh = float(rng.uniform(8, bmax))
        cx = float(rng.uniform(bw, size - bw))
        cy = float(rng.uniform(bh, size - bh))
        theta = float(rng.uniform(0, np.pi / 2))
        ring = _convex_quad(rng, cx, cy, bw, bh, theta)
        rings.append(ring)
        gx, gy = apply_affine(transform, ring[:, 0], ring[:, 1])
        geo = np.stack([gx, gy], axis=1)
        feats.append(
            {
                "image_id": f"img_{i:08d}",
                "class": "building",
                "wkt_pix": dump_wkt_polygon(np.round(ring, 3)),
                "xs": geo[:, 0].tolist(),
                "ys": geo[:, 1].tolist(),
                "minx": float(geo[:, 0].min()),
                "miny": float(geo[:, 1].min()),
                "maxx": float(geo[:, 0].max()),
                "maxy": float(geo[:, 1].max()),
            }
        )
    for r in range(p["n_roads"]):
        npts = int(rng.integers(2, 5))
        pts = np.stack(
            [rng.uniform(0, size, npts), rng.uniform(0, size, npts)], axis=1
        )
        gx, gy = apply_affine(transform, pts[:, 0], pts[:, 1])
        geo = np.stack([gx, gy], axis=1)
        feats.append(
            {
                "image_id": f"img_{i:08d}",
                "class": "road",
                "wkt_pix": "LINESTRING ("
                + ", ".join(f"{a:.3f} {b:.3f}" for a, b in np.round(pts, 3))
                + ")",
                "xs": geo[:, 0].tolist(),
                "ys": geo[:, 1].tolist(),
                "minx": float(geo[:, 0].min()),
                "miny": float(geo[:, 1].min()),
                "maxx": float(geo[:, 0].max()),
                "maxy": float(geo[:, 1].max()),
            }
        )

    # --- pixels ----------------------------------------------------------
    yy, xx = np.indices((size, size))
    base = ((xx + yy + 13 * i) % 256).astype(np.uint8)
    noise = rng.integers(0, 24, size=(size, size), dtype=np.uint8)
    img = np.clip(base.astype(np.int32) + noise, 0, 255).astype(np.uint8)
    rgb = np.stack([img, (img[::-1]).copy(), (255 - img)], axis=-1)
    if rings:
        coords = np.concatenate(rings)
        offsets = np.cumsum([0] + [len(r) for r in rings]).astype(np.int64)
        footprint = rasterize_rings(coords, offsets, (size, size))
        rgb[footprint > 0] = np.array([200, 64, 64], dtype=np.uint8)

    fmt = p["fmt"]
    buf = encode(rgb, fmt)
    # phash: content-independent deterministic hash; every 17th image
    # copies the previous one's (exact-dup exercise, FIXTURES.md F1)
    ph = i - 1 if (i % 17 == 0 and i > 0) else i
    phash = (ph * 2654435761 + seed * 97) % (1 << 62)
    row = {
        "image_id": f"img_{i:08d}",
        "bytes": buf,
        "w": size,
        "h": size,
        "fmt": fmt,
        "caption": f"synthetic scene {i:08d}: {p['n_buildings']} buildings, "
        f"{p['n_roads']} roads at ({x0:.1f}, {y0:.1f})",
        "phash": phash,
        "epsg": EPSG,
        "gt_a": transform.a,
        "gt_b": transform.b,
        "gt_c": transform.c,
        "gt_d": transform.d,
        "gt_e": transform.e,
        "gt_f": transform.f,
        "nodata": 0.0,
    }
    return row, feats


IMAGE_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),
        ("caption", pa.string()),
        ("phash", pa.int64()),
        ("epsg", pa.int32()),
        ("gt_a", pa.float64()),
        ("gt_b", pa.float64()),
        ("gt_c", pa.float64()),
        ("gt_d", pa.float64()),
        ("gt_e", pa.float64()),
        ("gt_f", pa.float64()),
        ("nodata", pa.float64()),
    ]
)

FEATURE_SCHEMA = pa.schema(
    [
        ("feature_id", pa.int64()),
        ("image_id", pa.string()),
        ("class", pa.string()),
        ("wkt_pix", pa.string()),
        ("xs", pa.list_(pa.float64())),
        ("ys", pa.list_(pa.float64())),
        ("minx", pa.float64()),
        ("miny", pa.float64()),
        ("maxx", pa.float64()),
        ("maxy", pa.float64()),
    ]
)


def gen_features_shard(indices: np.ndarray, n_images: int, seed: int, size: int = 256) -> pa.Table:
    """Features only — identical draws to ``gen_image`` up to the pixel
    stage (noise is drawn after features), so the feature layer matches
    the images a pixel-generating run produces, at no pixel cost."""
    feat_rows: list[dict] = []
    for idx in indices:
        i = int(idx)
        p = image_params(i, n_images, seed)
        rng = p["rng"]
        x0, y0 = p["origin"]
        transform = Affine.from_origin(x0, y0, PX, PX)
        for _ in range(p["n_buildings"]):
            bmax = min(40.0, size / 4.0)
            bw = float(rng.uniform(8, bmax))
            bh = float(rng.uniform(8, bmax))
            cx = float(rng.uniform(bw, size - bw))
            cy = float(rng.uniform(bh, size - bh))
            theta = float(rng.uniform(0, np.pi / 2))
            ring = _convex_quad(rng, cx, cy, bw, bh, theta)
            gx, gy = apply_affine(transform, ring[:, 0], ring[:, 1])
            geo = np.stack([gx, gy], axis=1)
            feat_rows.append(
                {
                    "image_id": f"img_{i:08d}",
                    "class": "building",
                    "wkt_pix": dump_wkt_polygon(np.round(ring, 3)),
                    "xs": geo[:, 0].tolist(),
                    "ys": geo[:, 1].tolist(),
                    "minx": float(geo[:, 0].min()),
                    "miny": float(geo[:, 1].min()),
                    "maxx": float(geo[:, 0].max()),
                    "maxy": float(geo[:, 1].max()),
                }
            )
        for _ in range(p["n_roads"]):
            npts = int(rng.integers(2, 5))
            pts = np.stack(
                [rng.uniform(0, size, npts), rng.uniform(0, size, npts)], axis=1
            )
            gx, gy = apply_affine(transform, pts[:, 0], pts[:, 1])
            geo = np.stack([gx, gy], axis=1)
            feat_rows.append(
                {
                    "image_id": f"img_{i:08d}",
                    "class": "road",
                    "wkt_pix": "LINESTRING ("
                    + ", ".join(f"{a:.3f} {b:.3f}" for a, b in np.round(pts, 3))
                    + ")",
                    "xs": geo[:, 0].tolist(),
                    "ys": geo[:, 1].tolist(),
                    "minx": float(geo[:, 0].min()),
                    "miny": float(geo[:, 1].min()),
                    "maxx": float(geo[:, 0].max()),
                    "maxy": float(geo[:, 1].max()),
                }
            )
    counts: dict[str, int] = {}
    for f in feat_rows:
        k = f["image_id"]
        f["feature_id"] = int(k[4:]) * 4096 + counts.get(k, 0)
        counts[k] = counts.get(k, 0) + 1
    return pa.Table.from_pylist(feat_rows, schema=FEATURE_SCHEMA)


def gen_shard(indices: np.ndarray, n_images: int, seed: int, size: int = 256) -> tuple[pa.Table, pa.Table]:
    """Generate (images, features) tables for a shard of image indices.

    This is the map_batches body for distributed generation:
    ``ray.data.range(n).map_batches(lambda b: gen_shard(b['id'], ...))``.
    """
    img_rows = []
    feat_rows = []
    for i in indices:
        row, feats = gen_image(int(i), n_images, seed, size)
        img_rows.append(row)
        feat_rows.extend(feats)
    images = pa.Table.from_pylist(img_rows, schema=IMAGE_SCHEMA)
    # feature_id: deterministic per (image, position-within-image):
    # image index * 4096 + local index — unique at any shard split
    counts: dict[str, int] = {}
    for f in feat_rows:
        k = f["image_id"]
        f["feature_id"] = int(k[4:]) * 4096 + counts.get(k, 0)
        counts[k] = counts.get(k, 0) + 1
    features = pa.Table.from_pylist(feat_rows, schema=FEATURE_SCHEMA)
    return images, features


def gen_proposals(features: pa.Table, seed: int) -> pa.Table:
    """Jittered/spurious proposals for eval (FIXTURES.md §F3).

    ~70% of buildings get a jittered true-positive-ish proposal (2-6 px
    shift), plus ~30% spurious far-shifted boxes; confidences include
    ties (steps of 0.05) to exercise the conf-desc greedy order
    (solaris/eval/base.py:532-533).
    """
    rows = []
    pid = 0
    tbl = features.to_pylist()
    for f in tbl:
        if f["class"] != "building":
            continue
        rng = np.random.default_rng([seed, 1000003, f["feature_id"]])
        xs = np.asarray(f["xs"])
        ys = np.asarray(f["ys"])
        if rng.random() < 0.7:
            dx, dy = rng.uniform(1.0, 3.0, 2)  # meters; small → IoU > 0.5 mostly
            rows.append(
                {
                    "proposal_id": pid,
                    "image_id": f["image_id"],
                    "class": "building",
                    "xs": (xs + dx).tolist(),
                    "ys": (ys + dy).tolist(),
                    "conf": round(float(rng.uniform(0.3, 1.0)) * 20) / 20,
                }
            )
            pid += 1
        if rng.random() < 0.3:
            dx, dy = rng.uniform(30.0, 80.0, 2)  # far → FP
            rows.append(
                {
                    "proposal_id": pid,
                    "image_id": f["image_id"],
                    "class": "building",
                    "xs": (xs + dx).tolist(),
                    "ys": (ys + dy).tolist(),
                    "conf": round(float(rng.uniform(0.0, 0.6)) * 20) / 20,
                }
            )
            pid += 1
    schema = pa.schema(
        [
            ("proposal_id", pa.int64()),
            ("image_id", pa.string()),
            ("class", pa.string()),
            ("xs", pa.list_(pa.float64())),
            ("ys", pa.list_(pa.float64())),
            ("conf", pa.float64()),
        ]
    )
    return pa.Table.from_pylist(rows, schema=schema)
