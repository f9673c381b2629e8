"""CRS utilities: UTM zone inference + lat/lon <-> UTM reprojection.

Replaces the pyproj-backed reference helpers (pyproj is not available
in this environment) with the standard Karney/Krüger series transverse
Mercator formulas (public domain, e.g. Snyder, "Map Projections — A
Working Manual", USGS PP 1395):

- ``latlon_to_utm_epsg`` ≙ /root/reference/solaris/utils/geo.py:597-696
  (zone = floor(lon/6)+31, EPSG 326xx north / 327xx south).
- ``latlon_to_utm`` / ``utm_to_latlon`` ≙ the reproject_to_utm path
  (/root/reference/solaris/utils/geo.py:24-182) for vector coords.

Accuracy: 6th-order series, sub-millimeter within a zone — adequate
for the engine's reproject semantics; round-trip tested.
"""

from __future__ import annotations

import numpy as np

# WGS84
_A = 6378137.0
_F = 1 / 298.257223563
_K0 = 0.9996
_E2 = _F * (2 - _F)
_EP2 = _E2 / (1 - _E2)
_FE = 500000.0  # false easting
_FN_S = 10000000.0  # false northing (southern hemisphere)


def utm_zone(lon: np.ndarray | float, lat: np.ndarray | float) -> np.ndarray:
    """UTM zone number (1..60); simplified (no Norway/Svalbard bends),
    matching ``_latlon_to_utm_zone`` simplicity in the reference."""
    return (np.floor((np.asarray(lon, dtype=np.float64) + 180.0) / 6.0).astype(np.int64) % 60) + 1


def latlon_to_utm_epsg(lat: float, lon: float) -> int:
    """EPSG code of the local UTM zone (geo.py:597-640 semantics)."""
    zone = int(utm_zone(lon, lat))
    return (32600 if lat >= 0 else 32700) + zone


def latlon_to_utm(lon: np.ndarray, lat: np.ndarray, zone: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Vectorized forward transverse Mercator (WGS84 -> UTM meters)."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    if zone is None:
        zone = int(utm_zone(float(np.mean(lon)), float(np.mean(lat))))
    lon0 = np.radians(zone * 6.0 - 183.0)
    phi = np.radians(lat)
    lam = np.radians(lon) - lon0
    sin_p, cos_p, tan_p = np.sin(phi), np.cos(phi), np.tan(phi)
    n = _A / np.sqrt(1 - _E2 * sin_p**2)
    t = tan_p**2
    c = _EP2 * cos_p**2
    a_ = cos_p * lam
    # meridional arc
    m = _A * (
        (1 - _E2 / 4 - 3 * _E2**2 / 64 - 5 * _E2**3 / 256) * phi
        - (3 * _E2 / 8 + 3 * _E2**2 / 32 + 45 * _E2**3 / 1024) * np.sin(2 * phi)
        + (15 * _E2**2 / 256 + 45 * _E2**3 / 1024) * np.sin(4 * phi)
        - (35 * _E2**3 / 3072) * np.sin(6 * phi)
    )
    easting = _FE + _K0 * n * (
        a_ + (1 - t + c) * a_**3 / 6 + (5 - 18 * t + t**2 + 72 * c - 58 * _EP2) * a_**5 / 120
    )
    northing = _K0 * (
        m
        + n * tan_p * (
            a_**2 / 2
            + (5 - t + 9 * c + 4 * c**2) * a_**4 / 24
            + (61 - 58 * t + t**2 + 600 * c - 330 * _EP2) * a_**6 / 720
        )
    )
    northing = np.where(lat < 0, northing + _FN_S, northing)
    return easting, northing, zone


def utm_to_latlon(easting: np.ndarray, northing: np.ndarray, zone: int, south: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized inverse transverse Mercator (UTM meters -> WGS84)."""
    x = np.asarray(easting, dtype=np.float64) - _FE
    y = np.asarray(northing, dtype=np.float64)
    if south:
        y = y - _FN_S
    m = y / _K0
    e1 = (1 - np.sqrt(1 - _E2)) / (1 + np.sqrt(1 - _E2))
    mu = m / (_A * (1 - _E2 / 4 - 3 * _E2**2 / 64 - 5 * _E2**3 / 256))
    phi1 = (
        mu
        + (3 * e1 / 2 - 27 * e1**3 / 32) * np.sin(2 * mu)
        + (21 * e1**2 / 16 - 55 * e1**4 / 32) * np.sin(4 * mu)
        + (151 * e1**3 / 96) * np.sin(6 * mu)
        + (1097 * e1**4 / 512) * np.sin(8 * mu)
    )
    sin1, cos1, tan1 = np.sin(phi1), np.cos(phi1), np.tan(phi1)
    c1 = _EP2 * cos1**2
    t1 = tan1**2
    n1 = _A / np.sqrt(1 - _E2 * sin1**2)
    r1 = _A * (1 - _E2) / (1 - _E2 * sin1**2) ** 1.5
    d = x / (n1 * _K0)
    lat = phi1 - (n1 * tan1 / r1) * (
        d**2 / 2
        - (5 + 3 * t1 + 10 * c1 - 4 * c1**2 - 9 * _EP2) * d**4 / 24
        + (61 + 90 * t1 + 298 * c1 + 45 * t1**2 - 252 * _EP2 - 3 * c1**2) * d**6 / 720
    )
    lon = (
        d
        - (1 + 2 * t1 + c1) * d**3 / 6
        + (5 - 2 * c1 + 28 * t1 - 3 * c1**2 + 8 * _EP2 + 24 * t1**2) * d**5 / 120
    ) / cos1
    lon0 = np.radians(zone * 6.0 - 183.0)
    return np.degrees(lon + lon0), np.degrees(lat)


_WEBMERC_MAX_LAT = 85.05112877980659  # atan(sinh(pi)) in degrees


def latlon_to_webmercator(lon: np.ndarray, lat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized WGS84 -> Web-Mercator (EPSG:3857) forward transform.

    Closed-form spherical Mercator on the WGS84 semi-major axis
    (EPSG "Popular Visualisation Pseudo Mercator", method 1024):
    x = a*lam, y = a*ln(tan(pi/4 + phi/2)).  Valid |lat| <=
    85.0511° (atan(sinh(pi))); inputs beyond that raise — matching
    the projection's defined domain rather than silently clamping.
    Reference reprojects via pyproj (/root/reference/solaris/utils/
    geo.py:24-182); this is the same EPSG-registry formula, pyproj-free.
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    if lat.size and np.abs(lat).max() > _WEBMERC_MAX_LAT:
        raise ValueError(
            f"EPSG:3857 is undefined beyond |lat| = {_WEBMERC_MAX_LAT}")
    x = _A * np.radians(lon)
    y = _A * np.log(np.tan(np.pi / 4 + np.radians(lat) / 2))
    return x, y


def webmercator_to_latlon(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Web-Mercator (EPSG:3857) -> WGS84 inverse transform."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    lon = np.degrees(x / _A)
    lat = np.degrees(2 * np.arctan(np.exp(y / _A)) - np.pi / 2)
    return lon, lat


def reproject(x: np.ndarray, y: np.ndarray, from_epsg: int, to_epsg: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-array reprojection between the supported CRS family:
    EPSG:4326 (lon/lat order), EPSG:3857, and UTM 326xx/327xx.  Pairs
    that don't share an axis route through 4326 (exactly what pyproj's
    pipeline does for these CRS).  Unsupported codes raise — the
    engine never silently passes coordinates through."""
    if from_epsg == to_epsg:
        return np.asarray(x, np.float64), np.asarray(y, np.float64)

    def _to_4326(x, y, epsg):
        if epsg == 4326:
            return x, y
        if epsg == 3857:
            return webmercator_to_latlon(x, y)
        if 32600 < epsg <= 32660:
            return utm_to_latlon(x, y, epsg - 32600, south=False)
        if 32700 < epsg <= 32760:
            return utm_to_latlon(x, y, epsg - 32700, south=True)
        raise ValueError(f"unsupported source EPSG:{epsg}")

    def _from_4326(lon, lat, epsg):
        if epsg == 4326:
            return lon, lat
        if epsg == 3857:
            return latlon_to_webmercator(lon, lat)
        if 32600 < epsg <= 32660 or 32700 < epsg <= 32760:
            south = epsg > 32700
            e, n, _ = latlon_to_utm(lon, lat, zone=epsg - (32700 if south else 32600))
            # latlon_to_utm applies the false northing by each point's
            # own hemisphere; the target EPSG fixes it for every point
            if south:
                return e, np.where(lat < 0, n, n + _FN_S)
            return e, np.where(lat < 0, n - _FN_S, n)
        raise ValueError(f"unsupported target EPSG:{epsg}")

    lon, lat = _to_4326(np.asarray(x, np.float64), np.asarray(y, np.float64), from_epsg)
    return _from_4326(lon, lat, to_epsg)


def projection_unit(epsg: int) -> str:
    """'metre' for UTM/Web-Mercator codes, 'degree' for geographic
    (get_projection_unit semantics,
    /root/reference/solaris/utils/geo.py:372-388)."""
    if 32600 < epsg <= 32660 or 32700 < epsg <= 32760 or epsg == 3857:
        return "metre"
    if epsg == 4326:
        return "degree"
    return "unknown"
