"""Image codecs for the ``bytes`` column of the images/tiles tables.

The driver-mandated input table carries encoded images
(``fmt: string`` ∈ {"png", "qnt"}), mirroring the reference's GeoTIFF
read path (solaris/utils/io.py:6-151 ``imread``,
solaris/preproc/image.py:43-79 GDAL loader).  No PIL/imagecodecs wheel
exists in this environment, so:

- ``png``: a real, spec-compliant PNG codec.  Lossless.  Encode writes
  8-bit gray / gray+alpha / RGB / RGBA with filter 0 on every scanline
  through stdlib zlib, so its bytes are the same on every machine.
  Binary masks have their own encoder, ``png_encode_masks``: one call
  per stack of masks, each deflated with ``Z_RLE``, which on runs of
  one value takes about half the time of level 4 for fewer bytes.
  Decode inflates such streams itself, with libdeflate where it loads
  (``pnglib.inflate``), straight into a buffer of the declared size; any
  other stream (filters 1-4, palette, 16-bit, interlaced) goes to
  libpng (``pnglib.png_decode_fast``).
- ``qnt``: a deliberately *lossy* format — 5-bit per-channel
  quantization then PNG — standing in for JPEG so the
  PSNR ≥ 40 dB acceptance check (BASELINE.json input_hint) is a real
  check: 5-bit quantization yields PSNR ≈ 41 dB on natural-ish data.

All other functions are per-image.  Batch stages call them once per row of
the binary column and keep every other per-pixel step whole-array: in
the tile cutter, per-tile reductions and per-tile geometry around the
codec calls once cost as much as the decode itself (NOTES.md, "One pass
per image in the tile cutter").
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .gif import gif_decode, gif_encode
from .gtiff import gtiff_decode, gtiff_encode
from .jpeg import jpeg_decode, jpeg_encode

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(arr: np.ndarray, level: int = 4) -> bytes:
    """[Y,X] or [Y,X,C] uint8 -> PNG bytes (C in {1,3,4})."""
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]  # 2 = gray+alpha
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    # filter byte 0 per scanline
    raw = np.empty((h, w * c + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = arr.reshape(h, w * c)
    idat = zlib.compress(raw.tobytes(), level)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


_IDAT_CRC = zlib.crc32(b"IDAT")


def png_encode_masks(stack: np.ndarray) -> list[bytes]:
    """(n, h, w) uint8 stack -> one 8-bit gray PNG per mask.

    Binary masks are long runs of one value, so each is deflated with
    ``Z_RLE`` (matches at distance 1 only): about half the time of
    ``png_encode``'s level 4, and fewer bytes on masks.  The filter-0
    raw buffer is built once per stack, the IHDR and IEND chunks once
    per call, and every all-zero mask shares the first one's stream."""
    stack = np.asarray(stack, dtype=np.uint8)
    n, h, w = stack.shape
    raw = np.zeros((n, h, w + 1), dtype=np.uint8)  # filter byte 0 per scanline
    raw[:, :, 1:] = stack
    head = _PNG_SIG + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
    tail = _chunk(b"IEND", b"")
    blank = None
    out = []
    for i, nonzero in enumerate(stack.reshape(n, h * w).any(axis=1).tolist()):
        if not nonzero and blank is not None:
            out.append(blank)
            continue
        z = zlib.compressobj(strategy=zlib.Z_RLE)
        idat = z.compress(raw[i]) + z.flush()
        png = b"".join((head, struct.pack(">I4s", len(idat), b"IDAT"), idat,
                        struct.pack(">I", zlib.crc32(idat, _IDAT_CRC)), tail))
        if not nonzero:
            blank = png
        out.append(png)
    return out


def _unfilter(raw: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    """Undo PNG scanline filters (types 0-4)."""
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        ftype = raw[y, 0]
        line = raw[y, 1:].astype(np.int32)
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, dtype=np.int32)
        if ftype == 0:
            out[y] = line
        elif ftype == 2:  # Up
            out[y] = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need sequential left
            cur = np.zeros(stride, dtype=np.int32)
            for x in range(stride):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                if ftype == 1:
                    val = line[x] + a
                elif ftype == 3:
                    val = line[x] + ((a + b) >> 1)
                else:
                    cc = prev[x - bpp] if x >= bpp else 0
                    p = a + b - cc
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - cc)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else cc)
                    val = line[x] + pred
                cur[x] = val & 0xFF
            out[y] = cur
        else:
            raise ValueError(f"bad PNG filter type {ftype}")
    return out


_PNG_CHANNELS = {0: 1, 4: 2, 2: 3, 6: 4}  # color type -> channels
# chunks that may sit between IHDR and IDAT without changing a sample;
# any other (PLTE, tRNS, gAMA, sRGB, iCCP, ...) sends the stream to libpng
_META_CHUNKS = frozenset({b"pHYs", b"tEXt", b"zTXt", b"iTXt", b"tIME"})
# deflate's largest output per input byte: a 258-byte match in 2 bits
_MAX_INFLATE_RATIO = 1032
# libpng's default limit on either side (png_set_user_limits)
_MAX_SIDE = 1_000_000


def _plain_png(buf, crc32):
    """``(h, w, channels, idat)`` of an 8-bit, non-interlaced gray,
    gray+alpha, RGB or RGBA stream with no chunk that changes samples,
    else None.

    Checks the IHDR and IDAT CRCs, as libpng does, and raises
    ``ValueError`` on a stream libpng refuses too: no signature, no
    IHDR first, a chunk cut short before the image data ends, no IDAT.
    ``idat`` is the IDAT payload as uint8, a view of ``buf`` when there
    is one IDAT chunk.  ``crc32`` is ``pnglib.crc32``.  Like libpng, it
    reads nothing after the run of IDAT chunks, so a missing or damaged
    IEND is tolerated.
    """
    if buf[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    src = np.frombuffer(buf, np.uint8)
    pos, color_type, idat = 8, None, []
    while pos + 8 <= len(buf):
        length, tag = struct.unpack_from(">I4s", buf, pos)
        if idat and tag != b"IDAT":
            break
        end = pos + 12 + length
        if end > len(buf):
            raise ValueError(f"truncated PNG: {tag!r} chunk cut short")
        if color_type is None or tag == b"IDAT":
            (crc,) = struct.unpack_from(">I", buf, end - 4)
            if crc32(src[pos + 4:end - 4]) != crc:
                raise ValueError(f"PNG {tag!r} CRC error")
        if color_type is None:
            if tag != b"IHDR" or length != 13:
                raise ValueError("PNG does not start with an IHDR chunk")
            w, h, depth, color_type, comp, filt, interlace = struct.unpack_from(
                ">IIBBBBB", buf, pos + 8)
            if (depth, comp, filt, interlace) != (8, 0, 0, 0) or color_type not in _PNG_CHANNELS \
                    or not (0 < w <= _MAX_SIDE and 0 < h <= _MAX_SIDE):
                return None
        elif tag == b"IDAT":
            idat.append(src[pos + 8:end - 4])
        elif tag not in _META_CHUNKS:
            return None
        pos = end
    if not idat:
        raise ValueError("truncated PNG: no IDAT chunk")
    return h, w, _PNG_CHANNELS[color_type], idat[0] if len(idat) == 1 else np.concatenate(idat)


def png_decode(buf) -> np.ndarray:
    """PNG bytes -> [Y,X] (gray) or [Y,X,C] uint8, writable.

    An 8-bit, non-interlaced gray / gray+alpha / RGB / RGBA stream (see
    ``_plain_png``) is inflated into one buffer of exactly
    ``h * (stride + 1)`` bytes; when every scanline has filter 0 the
    result is a row-strided view of it, past the filter bytes.  Any
    other stream is decoded by libpng, whose arrays this path equals;
    without libpng, filters 1-4 are undone by ``_unfilter``.  A stream
    that is truncated, fails a CRC or its Adler-32, or inflates to fewer
    or more bytes than the IHDR declares raises ``ValueError``, as does
    an IHDR larger than the IDAT bytes could inflate to, before anything
    is allocated.
    """
    # pnglib (like webp) holds ctypes state that cannot be pickled by
    # value, so it is imported here, on the worker
    from . import pnglib

    plain = _plain_png(buf, pnglib.crc32)
    if plain is not None:
        h, w, c, idat = plain
        stride = w * c
        n = h * (stride + 1)
        if n > _MAX_INFLATE_RATIO * idat.size:
            raise ValueError(f"PNG IHDR declares {w}x{h} px, more than "
                             f"{idat.size} IDAT bytes can inflate to")
        raw = pnglib.inflate(idat, n).reshape(h, stride + 1)
        if not raw[:, 0].any():
            out = raw[:, 1:]
            return out if c == 1 else out.reshape(h, w, c)
    if pnglib.available():
        return pnglib.png_decode_fast(bytes(buf))
    if plain is None:
        raise ValueError("only 8-bit non-interlaced gray/RGB(A) PNG decodes without libpng")
    out = _unfilter(raw, h, stride, c).reshape(h, w, c)
    return out[:, :, 0] if c == 1 else out


QNT_BITS = 5  # 5-bit quantization → PSNR ≈ 41 dB (just above the 40 dB gate)


def qnt_encode(arr: np.ndarray, level: int = 4) -> bytes:
    """Lossy encode: quantize to QNT_BITS bits/channel, then PNG."""
    arr = np.asarray(arr, dtype=np.uint8)
    shift = 8 - QNT_BITS
    q = (arr >> shift) << shift
    q = q + (1 << (shift - 1))  # mid-rise reconstruction level
    return b"QNT0" + png_encode(q.astype(np.uint8), level)


def qnt_decode(buf: bytes) -> np.ndarray:
    if buf[:4] != b"QNT0":
        raise ValueError("not a QNT buffer")
    return png_decode(memoryview(buf)[4:])


def f64_encode(arr: np.ndarray) -> bytes:
    """Raw float64 [H,W] / [H,W,C] container — lossless carrier for
    SAR complex pairs, calibration outputs and lat/lon/alt grids
    (reference keeps these as in-memory float/complex ndarrays,
    preproc/sar.py:35-101; we need an at-rest binary column format).
    Layout: b"F64\\x00" + <III (h, w, c)> + C-order little-endian
    float64 payload."""
    a = np.asarray(arr, dtype="<f8")
    if a.ndim == 2:
        a = a[:, :, None]
    h, w, c = a.shape
    return b"F64\x00" + struct.pack("<III", h, w, c) + a.tobytes()


def f64_decode(buf: bytes) -> np.ndarray:
    if buf[:4] != b"F64\x00":
        raise ValueError("not an F64 buffer")
    h, w, c = struct.unpack("<III", buf[4:16])
    out = np.frombuffer(buf[16:], dtype="<f8").reshape(h, w, c)
    return out[:, :, 0] if c == 1 else out


def encode(arr: np.ndarray, fmt: str, level: int = 4) -> bytes:
    """``level`` is the zlib effort (0 = stored, still spec-compliant
    PNG).  Noisy imagery defeats deflate (≤4% smaller at 16x the CPU),
    so throughput-critical intermediate tiles use level 0; persisted
    outputs keep the default."""
    if fmt == "png":
        return png_encode(arr, level)
    if fmt == "qnt":
        return qnt_encode(arr, level)
    if fmt == "f64":
        return f64_encode(arr)
    if fmt in ("gtif", "tif", "tiff"):
        return gtiff_encode(arr)
    if fmt in ("jpeg", "jpg"):
        return jpeg_encode(arr, quality=95)
    if fmt == "webp":
        from .webp import webp_encode  # ctypes module: see png_decode

        return webp_encode(arr, lossless=True)
    if fmt == "gif":
        if arr.ndim == 3 and arr.shape[2] == 1:
            arr = arr[:, :, 0]
        elif arr.ndim == 3 and arr.shape[2] == 3:
            # gray stored as identical RGB channels (the gif_decode
            # output shape) collapses losslessly; true color would need
            # palette quantization — refuse rather than quietly degrade
            if not (np.array_equal(arr[:, :, 0], arr[:, :, 1])
                    and np.array_equal(arr[:, :, 0], arr[:, :, 2])):
                raise ValueError(
                    "gif encode: true-color input needs a palette; "
                    "only grayscale (equal channels) is lossless"
                )
            arr = arr[:, :, 0]
        return gif_encode(arr)
    raise ValueError(f"unsupported fmt {fmt!r}")


def decode(buf: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return png_decode(bytes(buf))
    if fmt == "qnt":
        return qnt_decode(bytes(buf))
    if fmt == "f64":
        return f64_decode(bytes(buf))
    if fmt in ("gtif", "tif", "tiff"):
        # gtiff_decode reads general baseline TIFF too (both byte
        # orders, deflate/LZW/PackBits strips, predictor 2), so plain
        # ``tiff`` payloads are native, not stubbed
        arr, _ = gtiff_decode(bytes(buf))
        return arr[:, :, 0] if arr.shape[2] == 1 else arr
    if fmt in ("jpeg", "jpg"):
        return jpeg_decode(bytes(buf))
    if fmt == "webp":
        from .webp import webp_decode

        return webp_decode(bytes(buf))
    if fmt == "gif":
        return gif_decode(bytes(buf))
    raise ValueError(f"unsupported fmt {fmt!r}")


def psnr(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (acceptance: ≥ 40 dB for lossy)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))
