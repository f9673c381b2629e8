"""libpng and libdeflate bindings (stdlib ctypes).

``codec.png_decode`` takes every 8-bit, non-interlaced gray, gray+alpha,
RGB or RGBA stream with filter 0 on every scanline (every stream
``codec.png_encode`` writes, and the PNG inside ``qnt``) through
libdeflate: ``crc32`` checks the IHDR and IDAT CRCs and ``inflate``
writes the zlib stream into one buffer of exactly the declared size.
Without libdeflate, stdlib zlib does both under the same checks.

Every other stream goes to libpng (``png_decode_fast``): adaptive
filters 1-4, palette, 16-bit and interlaced streams, and streams with a
transparency or colour-space chunk.  Encode stays in ``codec``, on
stdlib zlib, so its bytes are the same on every machine.

libpng is read through the ``png_image`` struct, the stable flat ABI
added in libpng 1.6 for foreign-function use; no version-dependent
opaque struct is touched.  The libraries are loaded where this module
is imported, which for ``codec.decode`` is the worker.
"""

from __future__ import annotations

import ctypes
import zlib

import numpy as np

PNG_IMAGE_VERSION = 1
_FLAG_ALPHA = 0x01
_FLAG_COLOR = 0x02
_FLAG_LINEAR = 0x04
_FLAG_COLORMAP = 0x08


class _PngImage(ctypes.Structure):
    _fields_ = [
        ("opaque", ctypes.c_void_p),
        ("version", ctypes.c_uint32),
        ("width", ctypes.c_uint32),
        ("height", ctypes.c_uint32),
        ("format", ctypes.c_uint32),
        ("flags", ctypes.c_uint32),
        ("colormap_entries", ctypes.c_uint32),
        ("warning_or_error", ctypes.c_uint32),
        ("message", ctypes.c_char * 64),
    ]


_lib = None
try:  # pragma: no cover - environment probe
    _lib = ctypes.CDLL("libpng16.so.16")
except OSError:
    try:
        _lib = ctypes.CDLL("libpng16.so")
    except OSError:
        _lib = None

if _lib is not None:
    _lib.png_image_begin_read_from_memory.restype = ctypes.c_int
    _lib.png_image_begin_read_from_memory.argtypes = [
        ctypes.POINTER(_PngImage),
        ctypes.c_char_p,
        ctypes.c_size_t,
    ]
    _lib.png_image_finish_read.restype = ctypes.c_int
    _lib.png_image_finish_read.argtypes = [
        ctypes.POINTER(_PngImage),
        ctypes.c_void_p,  # background
        ctypes.c_void_p,  # buffer
        ctypes.c_int,  # row_stride
        ctypes.c_void_p,  # colormap
    ]
    _lib.png_image_free.restype = None
    _lib.png_image_free.argtypes = [ctypes.POINTER(_PngImage)]


_deflate = None
try:  # pragma: no cover - environment probe
    _deflate = ctypes.CDLL("libdeflate.so.0")
except OSError:
    _deflate = None

if _deflate is not None:
    _deflate.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
    _deflate.libdeflate_alloc_decompressor.argtypes = []
    _deflate.libdeflate_free_decompressor.restype = None
    _deflate.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
    _deflate.libdeflate_zlib_decompress.restype = ctypes.c_int
    _deflate.libdeflate_zlib_decompress.argtypes = [
        ctypes.c_void_p,  # decompressor
        ctypes.c_void_p,  # in
        ctypes.c_size_t,
        ctypes.c_void_p,  # out
        ctypes.c_size_t,
        ctypes.c_void_p,  # actual_out_nbytes_ret: NULL demands exactly out_nbytes_avail
    ]
    _deflate.libdeflate_crc32.restype = ctypes.c_uint32
    _deflate.libdeflate_crc32.argtypes = [ctypes.c_uint32, ctypes.c_void_p, ctypes.c_size_t]

# enum libdeflate_result, after LIBDEFLATE_SUCCESS = 0
_INFLATE_ERRORS = {
    1: "corrupt zlib stream (bad data or Adler-32)",
    2: "zlib stream inflates to fewer bytes than the IHDR declares",
    3: "zlib stream inflates to more bytes than the IHDR declares",
}


def available() -> bool:
    return _lib is not None


def crc32(data: np.ndarray) -> int:
    """CRC-32 of a contiguous uint8 array, as ``zlib.crc32``."""
    if _deflate is None:
        return zlib.crc32(data)
    data = np.ascontiguousarray(data, np.uint8)
    return _deflate.libdeflate_crc32(0, data.ctypes.data, data.size)


def inflate(data: np.ndarray, n: int) -> np.ndarray:
    """Inflate the zlib stream ``data`` into a new writable uint8 array
    of exactly ``n`` bytes.

    A corrupt stream (a bad Adler-32 included), one that ends short of
    ``n`` bytes and one that holds more raise ``ValueError``.  One
    decompressor per call (0.6 us) leaves no state shared between
    threads; ctypes drops the GIL for the call.
    """
    if _deflate is None:
        d = zlib.decompressobj()
        try:
            # room for one byte more: a stream of exactly n bytes then
            # also reads its Adler-32 and reaches eof
            out = d.decompress(data, n + 1)
        except zlib.error as e:
            raise ValueError(f"{_INFLATE_ERRORS[1]}: {e}") from None
        if len(out) > n:
            raise ValueError(_INFLATE_ERRORS[3])
        if len(out) < n or not d.eof:
            raise ValueError(_INFLATE_ERRORS[2])
        return np.frombuffer(out, np.uint8).copy()
    data = np.ascontiguousarray(data, np.uint8)
    out = np.empty(n, np.uint8)
    dec = _deflate.libdeflate_alloc_decompressor()
    if not dec:
        raise MemoryError("libdeflate_alloc_decompressor failed")
    try:
        res = _deflate.libdeflate_zlib_decompress(
            dec, data.ctypes.data, data.size, out.ctypes.data, n, None)
    finally:
        _deflate.libdeflate_free_decompressor(dec)
    if res:
        raise ValueError(_INFLATE_ERRORS.get(res, f"libdeflate error {res}"))
    return out


def png_decode_fast(buf: bytes) -> np.ndarray:
    """PNG bytes -> [Y,X] (gray) or [Y,X,C] uint8 via libpng.

    Channel count follows the source image (palette expands to its
    color format; 16-bit narrows to 8), matching the pure-Python
    decoder's conventions on the subset both support.
    """
    if _lib is None:
        raise NotImplementedError("libpng not present on this system")
    img = _PngImage()
    img.version = PNG_IMAGE_VERSION
    if not _lib.png_image_begin_read_from_memory(ctypes.byref(img), buf, len(buf)):
        raise ValueError(f"not a PNG: {img.message.decode(errors='replace')}")
    try:
        fmt = img.format
        # request the 8-bit sRGB equivalent of the source layout
        want = fmt & (_FLAG_ALPHA | _FLAG_COLOR)
        img.format = want
        channels = 1 + (1 if want & _FLAG_ALPHA else 0) + (2 if want & _FLAG_COLOR else 0)
        out = np.empty(img.height * img.width * channels, dtype=np.uint8)
        ok = _lib.png_image_finish_read(
            ctypes.byref(img),
            None,
            out.ctypes.data_as(ctypes.c_void_p),
            0,
            None,
        )
        if not ok:
            raise ValueError(f"PNG decode failed: {img.message.decode(errors='replace')}")
        arr = out.reshape(img.height, img.width, channels)
        return arr[:, :, 0] if channels == 1 else arr
    finally:
        _lib.png_image_free(ctypes.byref(img))
