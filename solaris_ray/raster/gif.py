"""Pure-struct GIF89a codec (LZW) — no external imaging library.

Closes the ``gif`` row of the input-hint ``fmt`` column the same way
``raster/gtiff.py`` / ``raster/jpeg.py`` close theirs: real container
bytes, real entropy coding, stdlib only.

- ``gif_encode``: grayscale ``[Y,X] uint8`` (lossless via a 256-entry
  gray global color table) or paletted ``indices + palette`` input.
  Non-interlaced, single frame, variable-width LZW with CLEAR-on-full.
- ``gif_decode``: first frame of any baseline GIF87a/89a stream —
  global AND local color tables, extension blocks (GCE/comment/
  application) skipped per spec, interlaced row order undone, LZW
  including the k-w-k special case and the 12-bit table ceiling.
  Returns ``[Y,X,3] uint8`` RGB.

Width-change discipline (the classic off-by-one): the decoder grows the
code width when its next-entry counter REACHES 2^cs; the encoder, being
one table assignment ahead, grows when its counter EXCEEDS 2^cs.  The
roundtrip test pins both against each other and against hand-built
streams.

Per-image functions; the decode map stages loop over binary
column rows (decode cost dominates the loop).
"""

from __future__ import annotations

import struct

import numpy as np

_MAX_CODE = 4096


class _BitWriter:
    __slots__ = ("acc", "nbits", "out")

    def __init__(self):
        self.acc = 0
        self.nbits = 0
        self.out = bytearray()

    def write(self, code: int, width: int):
        self.acc |= code << self.nbits
        self.nbits += width
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def flush(self):
        if self.nbits:
            self.out.append(self.acc & 0xFF)
            self.acc = 0
            self.nbits = 0


def _lzw_encode(indices: bytes, mcs: int) -> bytes:
    clear = 1 << mcs
    eoi = clear + 1
    bw = _BitWriter()

    def _reset():
        return {bytes([i]): i for i in range(clear)}, eoi + 1, mcs + 1

    table, next_code, cs = _reset()
    bw.write(clear, cs)
    w = b""
    for ch in indices:
        wc = w + bytes([ch])
        if wc in table:
            w = wc
            continue
        bw.write(table[w], cs)
        if next_code < _MAX_CODE:
            table[wc] = next_code
            next_code += 1
            if next_code > (1 << cs) and cs < 12:
                cs += 1
        else:
            bw.write(clear, cs)
            table, next_code, cs = _reset()
        w = bytes([ch])
    if w:
        bw.write(table[w], cs)
        next_code += 1
        if next_code > (1 << cs) and cs < 12:
            cs += 1
    bw.write(eoi, cs)
    bw.flush()
    return bytes(bw.out)


def _lzw_decode(data: bytes, mcs: int, n_expected: int) -> bytes:
    clear = 1 << mcs
    eoi = clear + 1
    out = bytearray()
    table: list[bytes] = []
    next_code = 0
    cs = mcs + 1
    prev: bytes | None = None

    acc = 0
    nbits = 0
    pos = 0

    def _reset():
        nonlocal table, next_code, cs, prev
        table = [bytes([i]) for i in range(clear)] + [b"", b""]
        next_code = eoi + 1
        cs = mcs + 1
        prev = None

    _reset()
    n = len(data)
    while len(out) < n_expected:
        while nbits < cs:
            if pos >= n:
                raise ValueError("gif: truncated LZW stream")
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        code = acc & ((1 << cs) - 1)
        acc >>= cs
        nbits -= cs
        if code == clear:
            _reset()
            continue
        if code == eoi:
            break
        if code < next_code and code < len(table):
            entry = table[code]
        elif code == next_code and prev is not None:
            entry = prev + prev[:1]
        else:
            raise ValueError(f"gif: bad LZW code {code}")
        out.extend(entry)
        if prev is not None and next_code < _MAX_CODE:
            table.append(prev + entry[:1])
            next_code += 1
            if next_code >= (1 << cs) and cs < 12:
                cs += 1
        prev = entry
    return bytes(out)


def _sub_blocks(payload: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(payload), 255):
        chunk = payload[i:i + 255]
        out.append(len(chunk))
        out.extend(chunk)
    out.append(0)
    return bytes(out)


def gif_encode(arr: np.ndarray, palette: np.ndarray | None = None) -> bytes:
    """[Y,X] uint8 -> GIF bytes.

    Without ``palette``: values are gray levels (256-entry gray table,
    lossless).  With ``palette`` ([N,3] uint8, N <= 256): values are
    indices into it.
    """
    arr = np.asarray(arr, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError("gif_encode takes [Y,X] gray levels or palette indices")
    h, w = arr.shape
    if palette is None:
        g = np.arange(256, dtype=np.uint8)
        palette = np.stack([g, g, g], axis=1)
    palette = np.asarray(palette, dtype=np.uint8)
    n_colors = palette.shape[0]
    if arr.size and int(arr.max()) >= n_colors:
        raise ValueError("gif_encode: index exceeds palette size")
    # color table size = 2^(bits); mcs >= 2 per spec
    bits = 1
    while (1 << bits) < n_colors:
        bits += 1
    table = np.zeros((1 << bits, 3), np.uint8)
    table[:n_colors] = palette
    mcs = max(2, bits)

    out = bytearray()
    out.extend(b"GIF89a")
    packed = 0x80 | ((bits - 1) & 0x07)  # global table, size bits
    out.extend(struct.pack("<HHBBB", w, h, packed, 0, 0))
    out.extend(table.tobytes())
    out.extend(b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0))
    out.append(mcs)
    out.extend(_sub_blocks(_lzw_encode(arr.tobytes(), mcs)))
    out.append(0x3B)
    return bytes(out)


def _deinterlace(rows: np.ndarray) -> np.ndarray:
    h = rows.shape[0]
    order = np.concatenate([
        np.arange(0, h, 8), np.arange(4, h, 8),
        np.arange(2, h, 4), np.arange(1, h, 2),
    ])
    out = np.empty_like(rows)
    out[order] = rows
    return out


def gif_decode(buf: bytes) -> np.ndarray:
    """GIF bytes -> first frame as [Y,X,3] uint8 RGB.

    Truncated streams raise ValueError (the codec-registry contract),
    never IndexError — decode map loops classify per-row errors.
    """
    if buf[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF stream")
    n_buf = len(buf)

    def _at(p: int) -> int:
        if p >= n_buf:
            raise ValueError("gif: truncated stream")
        return buf[p]

    pos = 6
    if n_buf < 13:
        raise ValueError("gif: truncated stream")
    sw, sh, packed, _bg, _ar = struct.unpack_from("<HHBBB", buf, pos)
    pos += 7
    global_table = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        global_table = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
        pos += n * 3
    while pos < n_buf:
        block = buf[pos]
        pos += 1
        if block == 0x3B:  # trailer
            break
        if block == 0x21:  # extension: label + sub-blocks
            pos += 1
            while _at(pos):
                pos += 1 + buf[pos]
            pos += 1
            continue
        if block != 0x2C:
            raise ValueError(f"gif: unexpected block 0x{block:02x}")
        if pos + 9 > n_buf:
            raise ValueError("gif: truncated stream")
        left, top, w, h, ipacked = struct.unpack_from("<HHHHB", buf, pos)
        pos += 9
        table = global_table
        if ipacked & 0x80:
            n = 2 << (ipacked & 0x07)
            table = np.frombuffer(buf, np.uint8, n * 3, pos).reshape(n, 3)
            pos += n * 3
        if table is None:
            raise ValueError("gif: no color table")
        mcs = _at(pos)
        pos += 1
        data = bytearray()
        while _at(pos):
            ln = buf[pos]
            if pos + 1 + ln > n_buf:
                raise ValueError("gif: truncated stream")
            data.extend(buf[pos + 1:pos + 1 + ln])
            pos += 1 + ln
        pos += 1
        idx = np.frombuffer(
            _lzw_decode(bytes(data), mcs, w * h), np.uint8
        ).reshape(h, w)
        if ipacked & 0x40:
            idx = _deinterlace(idx)
        return table[idx]
    raise ValueError("gif: no image block")
