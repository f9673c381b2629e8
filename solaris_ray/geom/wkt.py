"""WKT / WKB codecs for the packed-ring batch representation.

Replaces shapely.wkt.loads/dumps and shapely.wkb (reference use:
solaris/utils/core.py:74-86 geometry coercion from WKT;
solaris/vector/polygon.py:67-85 WKT round-trip in convert_poly_coords;
SpaceNet CSV columns PolygonWKT_Pix/PolygonWKT_Geo,
solaris/eval/base.py:499-533).

Supported geometry types: POINT, LINESTRING, POLYGON (outer ring only —
interior holes rejected), MULTIPOLYGON (parsed to multiple rings; use
``explode`` semantics upstream to get one row per part, mirroring
split_multi_geometries solaris/utils/geo.py:480-587).

WKB: little-endian, types 1/2/3 (Point/LineString/Polygon), ISO flavor.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = [
    "parse_wkt_batch",
    "dump_wkt_polygon",
    "dump_wkt_batch",
    "wkb_encode_polygon",
    "wkb_decode",
    "wkb_encode_batch",
    "wkb_decode_batch",
]


def _parse_coord_seq(body: str) -> np.ndarray:
    """'x0 y0, x1 y1, ...' -> (N, 2) float64 array."""
    vals = np.array(body.replace(",", " ").split(), dtype=np.float64)
    return vals.reshape(-1, 2)


def parse_wkt(s: str) -> tuple[str, list[np.ndarray]]:
    """One WKT string -> (geom_type, list of (N,2) rings/parts)."""
    s = s.strip()
    upper = s[:20].upper()
    if upper.startswith("POLYGON"):
        inner = s[s.index("(") + 1 : s.rindex(")")]
        rings = _split_parens(inner)
        if len(rings) > 1:
            raise ValueError("interior rings not supported in v1")
        return "POLYGON", [_parse_coord_seq(rings[0])]
    if upper.startswith("MULTIPOLYGON"):
        inner = s[s.index("(") + 1 : s.rindex(")")]
        parts = _split_parens(inner)
        out = []
        for p in parts:
            rings = _split_parens(p)
            out.append(_parse_coord_seq(rings[0]))
        return "MULTIPOLYGON", out
    if upper.startswith("LINESTRING"):
        inner = s[s.index("(") + 1 : s.rindex(")")]
        return "LINESTRING", [_parse_coord_seq(inner)]
    if upper.startswith("POINT"):
        inner = s[s.index("(") + 1 : s.rindex(")")]
        return "POINT", [_parse_coord_seq(inner)]
    raise ValueError(f"unsupported WKT: {s[:40]}")


def _split_parens(s: str) -> list[str]:
    """Split a WKT body on top-level commas, stripping one paren layer."""
    parts = []
    depth = 0
    start = None
    for i, ch in enumerate(s):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                parts.append(s[start:i])
    return parts


def parse_wkt_batch(strings) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """List/array of WKT -> (coords (N,2), offsets (n+1,), geom_types).

    A MULTIPOLYGON contributes its first part only (callers must
    explode Multi* upstream; see geom/__init__ docstring).  Closing
    vertices (first == last) are dropped — packed rings are open.
    """
    coords_list = []
    offsets = [0]
    types = []
    total = 0
    for s in strings:
        gtype, parts = parse_wkt(s)
        ring = parts[0]
        if len(ring) > 1 and gtype in ("POLYGON", "MULTIPOLYGON") and np.array_equal(ring[0], ring[-1]):
            ring = ring[:-1]
        coords_list.append(ring)
        total += len(ring)
        offsets.append(total)
        types.append(gtype)
    coords = np.concatenate(coords_list) if coords_list else np.empty((0, 2))
    return coords, np.asarray(offsets, dtype=np.int64), types


def dump_wkt_polygon(ring: np.ndarray, precision: int | None = None) -> str:
    """(N,2) ring -> closed POLYGON WKT.

    ``precision`` mirrors _reduce_geom_precision
    (solaris/utils/geo.py:590-594).
    """
    if len(ring) == 0:
        return "POLYGON EMPTY"
    pts = np.vstack([ring, ring[:1]])
    if precision is not None:
        pts = np.round(pts, precision)
    body = ", ".join(f"{x!r} {y!r}" for x, y in pts)
    return f"POLYGON (({body}))"


def dump_wkt_batch(coords: np.ndarray, offsets: np.ndarray, precision: int | None = None) -> list[str]:
    return [
        dump_wkt_polygon(coords[offsets[i] : offsets[i + 1]], precision)
        for i in range(len(offsets) - 1)
    ]


# --- WKB ------------------------------------------------------------------

_WKB_POINT, _WKB_LINESTRING, _WKB_POLYGON = 1, 2, 3


def wkb_encode_polygon(ring: np.ndarray) -> bytes:
    """(N,2) open ring -> little-endian WKB Polygon (ring closed on disk)."""
    pts = np.vstack([ring, ring[:1]]) if len(ring) else ring
    header = struct.pack("<BIII", 1, _WKB_POLYGON, 1, len(pts))
    return header + np.ascontiguousarray(pts, dtype="<f8").tobytes()


def wkb_decode(buf: bytes) -> tuple[str, np.ndarray]:
    """WKB -> (geom_type, (N,2) coords). Polygon returns the OPEN outer ring."""
    byteorder = buf[0]
    fmt = "<" if byteorder == 1 else ">"
    (gtype,) = struct.unpack_from(fmt + "I", buf, 1)
    gtype &= 0xFF  # strip ISO Z/M flags
    if gtype == _WKB_POINT:
        x, y = struct.unpack_from(fmt + "dd", buf, 5)
        return "POINT", np.asarray([[x, y]])
    if gtype == _WKB_LINESTRING:
        (n,) = struct.unpack_from(fmt + "I", buf, 5)
        pts = np.frombuffer(buf, dtype=fmt + "f8", count=2 * n, offset=9).reshape(-1, 2)
        return "LINESTRING", pts.copy()
    if gtype == _WKB_POLYGON:
        (nrings,) = struct.unpack_from(fmt + "I", buf, 5)
        if nrings < 1:
            return "POLYGON", np.empty((0, 2))
        (n,) = struct.unpack_from(fmt + "I", buf, 9)
        pts = np.frombuffer(buf, dtype=fmt + "f8", count=2 * n, offset=13).reshape(-1, 2)
        if len(pts) > 1 and np.array_equal(pts[0], pts[-1]):
            pts = pts[:-1]
        return "POLYGON", pts.copy()
    raise ValueError(f"unsupported WKB geometry type {gtype}")


def wkb_encode_batch(coords: np.ndarray, offsets: np.ndarray) -> list[bytes]:
    return [
        wkb_encode_polygon(coords[offsets[i] : offsets[i + 1]])
        for i in range(len(offsets) - 1)
    ]


def wkb_decode_batch(bufs) -> tuple[np.ndarray, np.ndarray]:
    coords_list = []
    offsets = [0]
    total = 0
    for b in bufs:
        _, pts = wkb_decode(b)
        coords_list.append(pts)
        total += len(pts)
        offsets.append(total)
    coords = np.concatenate(coords_list) if coords_list else np.empty((0, 2))
    return coords, np.asarray(offsets, dtype=np.int64)
