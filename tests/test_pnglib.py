"""PNG decode: the libdeflate path against libpng and the pure
``_unfilter`` decoder, and the foreign-PNG space that libpng keeps.

Foreign variants are hand-built with test-local writers (adaptive
filters, palette, 16-bit) — streams the repo's own encoder never
emits, so the fast path's generality is tested against the spec, not
against itself.  The engine's own streams (8-bit, filter 0) are
inflated by ``pnglib.inflate``; libpng and ``_unfilter`` stay as the
references it must equal.
"""

from __future__ import annotations

import struct
import sys
import zlib
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solaris_ray.raster import codec, pnglib
from solaris_ray.raster.pnglib import available, png_decode_fast

pytestmark = pytest.mark.skipif(not available(), reason="libpng not present")
needs_libdeflate = pytest.mark.skipif(pnglib._deflate is None, reason="libdeflate not present")

RNG = np.random.default_rng(11)
CHANNELS = {0: 1, 4: 2, 2: 3, 6: 4}  # color type -> channels


@pytest.fixture(params=["libdeflate", "zlib"])
def inflater(request, monkeypatch):
    """Runs a test once per inflater: libdeflate, and stdlib zlib with
    libdeflate patched away."""
    if request.param == "libdeflate" and pnglib._deflate is None:
        pytest.skip("libdeflate not present")
    if request.param == "zlib":
        monkeypatch.setattr(pnglib, "_deflate", None)
    return request.param


def _pure_decode(buf):
    """Reference: every IDAT through zlib, then ``codec._unfilter``."""
    pos, idat = 8, b""
    while pos < len(buf):
        (length,) = struct.unpack_from(">I", buf, pos)
        tag = buf[pos + 4:pos + 8]
        if tag == b"IHDR":
            w, h, _, color_type = struct.unpack_from(">IIBB", buf, pos + 8)
        elif tag == b"IDAT":
            idat += buf[pos + 8:pos + 8 + length]
        pos += 12 + length
    c = CHANNELS[color_type]
    raw = np.frombuffer(zlib.decompress(idat), np.uint8).reshape(h, w * c + 1)
    out = codec._unfilter(raw, h, w * c, c).reshape(h, w, c)
    return out[:, :, 0] if c == 1 else out


def _chunk(tag, payload):
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)


def _write_filtered_png(arr, filters):
    """8-bit RGB PNG using the given per-row filter types (test-local)."""
    h, w, c = arr.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    raw = bytearray()
    prev = np.zeros(w * c, dtype=np.int32)
    for y in range(h):
        line = arr[y].reshape(-1).astype(np.int32)
        f = filters[y % len(filters)]
        raw.append(f)
        if f == 0:
            enc = line
        elif f == 1:  # Sub
            enc = line.copy()
            enc[c:] -= line[:-c]
        elif f == 2:  # Up
            enc = line - prev
        elif f == 3:  # Average
            left = np.concatenate([np.zeros(c, np.int32), line[:-c]])
            enc = line - ((left + prev) >> 1)
        else:  # Paeth
            enc = np.empty_like(line)
            for x in range(w * c):
                a = int(line[x - c]) if x >= c else 0
                b = int(prev[x])
                cc = int(prev[x - c]) if x >= c else 0
                enc[x] = line[x] - _paeth(a, b, cc)
        raw += (enc & 0xFF).astype(np.uint8).tobytes()
        prev = line
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(bytes(raw), 6))
        + _chunk(b"IEND", b"")
    )


def test_parity_with_pure_decoder_on_own_streams():
    for shape in [(64, 96, 3), (37, 23, 4), (50, 40)]:
        img = RNG.integers(0, 256, size=shape, dtype=np.uint8)
        buf = codec.png_encode(img, level=4)
        assert np.array_equal(_pure_decode(buf), png_decode_fast(buf))
        assert np.array_equal(codec.png_decode(buf), png_decode_fast(buf))


def _through_libpng(buf, monkeypatch):
    """``codec.png_decode(buf)``, asserting that it went to libpng."""
    calls = []

    def spy(b):
        calls.append(b)
        return png_decode_fast(b)

    monkeypatch.setattr(pnglib, "png_decode_fast", spy)
    out = codec.png_decode(buf)
    assert calls == [buf]
    return out


@pytest.mark.parametrize("filters", [[1], [2], [3], [4], [0, 1, 2, 3, 4]])
def test_foreign_filtered_png(filters, monkeypatch):
    img = RNG.integers(0, 256, size=(23, 31, 3), dtype=np.uint8)
    buf = _write_filtered_png(img, filters)
    assert np.array_equal(png_decode_fast(buf), img)
    assert np.array_equal(_through_libpng(buf, monkeypatch), img)
    # the pure decoder also reads filters 1-4 (slow path) — cross-check
    assert np.array_equal(_pure_decode(buf), img)


def test_foreign_palette_png(monkeypatch):
    pal = RNG.integers(0, 256, size=(16, 3), dtype=np.uint8)
    idx = RNG.integers(0, 16, size=(20, 20), dtype=np.uint8)
    ihdr = struct.pack(">IIBBBBB", 20, 20, 8, 3, 0, 0, 0)  # color type 3
    raw = b"".join(b"\x00" + idx[y].tobytes() for y in range(20))
    buf = (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"PLTE", pal.tobytes())
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    out = png_decode_fast(buf)
    assert np.array_equal(out, pal[idx])
    assert np.array_equal(_through_libpng(buf, monkeypatch), out)


def test_foreign_16bit_png_narrows_to_8(monkeypatch):
    img16 = RNG.integers(0, 65536, size=(12, 17, 3), dtype=np.uint16)
    ihdr = struct.pack(">IIBBBBB", 17, 12, 16, 2, 0, 0, 0)
    raw = b"".join(b"\x00" + img16[y].astype(">u2").tobytes() for y in range(12))
    buf = (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
    out = png_decode_fast(buf)
    assert out.shape == (12, 17, 3) and out.dtype == np.uint8
    # png_image semantics: 16-bit samples are linear light, so the
    # 8-bit narrowing applies the sRGB transfer; assert against it
    lin = img16.astype(np.float64) / 65535.0
    # png_image's 16->8 narrowing encodes with a pure gamma-2.2 power
    # law (empirically exact, not the piecewise sRGB transfer)
    expect = np.round(255.0 * lin ** (1 / 2.2))
    assert np.abs(out.astype(float) - expect).max() <= 3  # fixed-point table slop
    assert np.array_equal(_through_libpng(buf, monkeypatch), out)


def test_codec_decode_routes_through_fast_path():
    img = RNG.integers(0, 256, size=(33, 44, 3), dtype=np.uint8)
    assert np.array_equal(codec.decode(codec.encode(img, "png"), "png"), img)
    assert np.array_equal(codec.decode(codec.encode(img, "qnt"), "qnt") >> 3, img >> 3)


def _png(img, level=4, n_idat=1, extra=b"", iend=True):
    """8-bit filter-0 PNG of ``img`` ([Y,X] or [Y,X,C]) with its zlib
    stream split over ``n_idat`` IDAT chunks and ``extra`` chunks
    between IHDR and IDAT (test-local writer)."""
    img = img[:, :, None] if img.ndim == 2 else img
    h, w, c = img.shape
    color_type = {1: 0, 2: 4, 3: 2, 4: 6}[c]
    raw = np.zeros((h, w * c + 1), np.uint8)
    raw[:, 1:] = img.reshape(h, w * c)
    z = zlib.compress(raw.tobytes(), level)
    cuts = np.linspace(0, len(z), n_idat + 1).astype(int)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0))
        + extra
        + b"".join(_chunk(b"IDAT", z[a:b]) for a, b in zip(cuts[:-1], cuts[1:]))
        + (_chunk(b"IEND", b"") if iend else b"")
    )


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)


@needs_libdeflate
@settings(max_examples=150, deadline=None)
@given(
    color_type=st.sampled_from([0, 2, 4, 6]),
    h=st.integers(1, 150),
    w=st.integers(1, 150),
    level=st.sampled_from([0, 1, 4, 9]),
    n_idat=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_libdeflate_path_equals_libpng(color_type, h, w, level, n_idat, seed):
    c = CHANNELS[color_type]
    rng = np.random.default_rng(seed)
    # a flat half keeps high levels from degenerating to stored blocks
    img = rng.integers(0, 256, size=(h, w, c), dtype=np.uint8)
    img[: h // 2] = img[0, 0]
    buf = _png(img[:, :, 0] if c == 1 else img, level, n_idat)
    got = codec.png_decode(buf)
    assert _same(got, png_decode_fast(buf))
    assert _same(got, _pure_decode(buf))
    assert got.flags.writeable


@st.composite
def _mask_stacks(draw):
    """(n, h, w) stacks of 0 / burn-value masks: empty, full, one
    rectangle or salt and pepper, 1-150 px a side."""
    n, h, w = draw(st.integers(1, 6)), draw(st.integers(1, 150)), draw(st.integers(1, 150))
    burn = draw(st.sampled_from([1, 127, 255]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((n, h, w), np.uint8)
    for m in stack:
        kind = draw(st.sampled_from(["empty", "full", "rect", "noise"]))
        if kind == "full":
            m[:] = burn
        elif kind == "rect":
            y0, x0 = rng.integers(0, h), rng.integers(0, w)
            m[y0:rng.integers(y0, h + 1), x0:rng.integers(x0, w + 1)] = burn
        elif kind == "noise":
            m[rng.random((h, w)) < 0.5] = burn
    return stack


@settings(max_examples=100, deadline=None)
@given(_mask_stacks())
def test_mask_encoder_round_trips_through_every_decoder(stack):
    pngs = codec.png_encode_masks(stack)
    assert len(pngs) == len(stack)
    for m, buf in zip(stack, pngs):
        # a mask's stream does not depend on the rest of its stack
        assert buf == codec.png_encode_masks(m[None])[0]
        assert _same(png_decode_fast(buf), m)
        # codec's own fast path, through libdeflate and through stdlib zlib
        with mock.patch.object(pnglib, "png_decode_fast", None):
            assert _same(codec.png_decode(buf), m)
            with mock.patch.object(pnglib, "_deflate", None):
                assert _same(codec.png_decode(buf), m)


def test_mask_encoder_shares_one_stream_between_empty_masks():
    stack = np.zeros((4, 9, 7), np.uint8)
    stack[1, 2:5, 3:] = 255
    pngs = codec.png_encode_masks(stack)
    assert pngs[0] is pngs[2] is pngs[3] and pngs[1] != pngs[0]
    assert codec.png_encode_masks(stack[:0]) == []


def test_own_streams_skip_libpng(inflater, monkeypatch):
    monkeypatch.setattr(pnglib, "png_decode_fast", None)  # any call fails
    for shape in [(7, 5), (9, 4, 2), (6, 11, 3), (3, 8, 4)]:
        img = RNG.integers(0, 256, size=shape, dtype=np.uint8)
        assert _same(codec.png_decode(codec.png_encode(img, 4)), img)
        assert _same(codec.decode(codec.encode(img, "qnt"), "qnt") >> 3, img >> 3)


def test_colour_space_and_transparency_chunks_go_to_libpng(monkeypatch):
    img = RNG.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    gamma_1 = _chunk(b"gAMA", struct.pack(">I", 100000))
    trns = _chunk(b"tRNS", struct.pack(">HHH", *map(int, img[0, 0])))
    for extra in (gamma_1, trns):
        buf = _png(img, extra=extra)
        want = png_decode_fast(buf)
        assert not _same(want, img)  # libpng changes samples or adds alpha here
        assert _same(_through_libpng(buf, monkeypatch), want)
    # metadata chunks change nothing and stay on the direct path
    buf = _png(img, extra=_chunk(b"tEXt", b"k\x00v") + _chunk(b"pHYs", bytes(9)))
    assert _same(codec.png_decode(buf), img)


def _decode_or_error(fn, buf):
    try:
        return fn(buf)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("shape, n_idat", [((5, 7, 3), 1), ((4, 6, 2), 2)])
def test_prefixes_and_byte_flips_match_libpng(inflater, shape, n_idat):
    img = RNG.integers(0, 256, size=shape, dtype=np.uint8)
    buf = _png(img, 4, n_idat)
    cases = [buf[:n] for n in range(len(buf))]
    cases += [buf[:i] + bytes([buf[i] ^ x]) + buf[i + 1:]
              for i in range(len(buf)) for x in (0x01, 0x80, 0xFF)]
    n_ok = 0
    for case in cases:
        want = _decode_or_error(png_decode_fast, case)
        got = _decode_or_error(codec.png_decode, case)
        if want is ValueError:
            assert got is ValueError, case
        else:
            assert got is not ValueError and _same(got, want), case
            n_ok += 1
    # the damaged or missing IEND: libpng reads nothing after the IDATs
    assert n_ok == 12 + 3 * 12


def test_named_errors(inflater):
    img = RNG.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    buf = _png(img)
    ihdr_crc, idat = 29, 33  # offsets in the stream
    (n,) = struct.unpack_from(">I", buf, idat)

    def flip(b, i):
        return b[:i] + bytes([b[i] ^ 1]) + b[i + 1:]

    def with_ihdr(h):
        ihdr = _chunk(b"IHDR", struct.pack(">IIBBBBB", 5, h, 8, 2, 0, 0, 0))
        return buf[:8] + ihdr + buf[8 + 25:]

    z = buf[idat + 8:idat + 8 + n]
    bad_adler = buf[:idat] + _chunk(b"IDAT", z[:-1] + bytes([z[-1] ^ 1])) + buf[idat + 12 + n:]
    cases = {
        "truncated": buf[: idat + 20],
        "IHDR CRC": flip(buf, ihdr_crc),
        "IDAT CRC": flip(buf, idat + 8 + n),
        "Adler-32": bad_adler,
        "short": with_ihdr(7),
        "long": with_ihdr(5),
    }
    for case in cases.values():
        with pytest.raises(ValueError):
            codec.png_decode(case)
        with pytest.raises(ValueError):
            codec.decode(case, "png")
    # libpng raises on all but the surplus, which it ignores
    assert _decode_or_error(png_decode_fast, cases["long"]) is not ValueError
    assert _same(codec.png_decode(_png(img, iend=False)), img)


def test_ihdr_beyond_the_deflate_ratio_is_refused_before_allocating(inflater, monkeypatch):
    def never(*a):
        raise AssertionError("inflate called")

    monkeypatch.setattr(pnglib, "inflate", never)
    z = zlib.compress(b"\x00" * 4)
    bomb = (b"\x89PNG\r\n\x1a\n"
            + _chunk(b"IHDR", struct.pack(">IIBBBBB", 100000, 100000, 8, 2, 0, 0, 0))
            + _chunk(b"IDAT", z) + _chunk(b"IEND", b""))
    assert len(bomb) < 70
    with pytest.raises(ValueError, match="more than"):
        codec.png_decode(bomb)


def test_threads_equal_serial(inflater):
    bufs = [codec.png_encode(RNG.integers(0, 256, size=(64 + i, 48, 1 + i % 4), dtype=np.uint8), 1 + i % 9)
            for i in range(32)]
    serial = [codec.png_decode(b) for b in bufs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            for _ in range(4):
                assert all(_same(a, b) for a, b in zip(pool.map(codec.png_decode, bufs), serial))
    finally:
        sys.setswitchinterval(switch)


def test_zlib_inflater_gives_the_same_arrays(monkeypatch):
    bufs = [_png(RNG.integers(0, 256, size=(17, 23, c), dtype=np.uint8), lvl, k)
            for c in (1, 2, 3, 4) for lvl in (0, 9) for k in (1, 3)]
    fast = [codec.png_decode(b) for b in bufs]
    monkeypatch.setattr(pnglib, "_deflate", None)
    for b, f in zip(bufs, fast):
        assert _same(codec.png_decode(b), f)
        assert _same(f, png_decode_fast(b))


@pytest.mark.parametrize("fmt", ["png", "gtif", "webp"])
def test_encodes_of_a_decoded_array_equal_its_contiguous_copy(fmt):
    from solaris_ray.raster import webp

    if fmt == "webp" and not webp.available():
        pytest.skip("libwebp not present")
    for c in (1, 3, 4):
        img = RNG.integers(0, 256, size=(19, 21, c), dtype=np.uint8)
        dec = codec.decode(codec.encode(img[:, :, 0] if c == 1 else img, "png"), "png")
        assert _same(dec, img[:, :, 0] if c == 1 else img)
        assert codec.encode(dec, fmt) == codec.encode(np.ascontiguousarray(dec), fmt)
