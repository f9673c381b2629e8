"""Audio columns — WAV/PCM codec + map-stage analysis classes.

The driver mandate treats audio as opaque ``binary`` + typed metadata
with decode / feature-extract as ``map_batches`` stages.
No audio library exists in this container, but RIFF/WAVE PCM is a
pure-struct container (same discipline as ``raster/gtiff.py`` and
``raster/jpeg.py``), so WAV decodes for REAL here:

- ``wav_encode`` / ``wav_decode``: PCM 16-bit (and 8-bit unsigned /
  32-bit float on decode), mono or multi-channel, standard 44-byte
  header plus arbitrary extra chunks skipped on read.
- ``AudioStats``: per-row n_samples / rate / duration / RMS / peak.
- ``AudioClips``: fixed-length window fan-out (1 row -> n clip rows),
  each clip re-encoded as a standalone WAV — the audio twin of the
  image chipper.

Compressed telephony codecs are REAL (round 4b): G.711 mu-law (WAV
format code 7) and A-law (code 6) via vectorized segment math, and
IMA ADPCM (code 17, the standard 4-bit DVI/IMA scheme) with the
per-sample feedback loop vectorized ACROSS blocks (blocks are
independent by spec, so a [n_blocks, samples_per_block] matrix steps
through sample positions with numpy ops — the classic way to make a
sequential codec data-parallel).  FLAC (the speech-corpus format) is
REAL too — see ``stages/flac.py``; every stage reaches codecs through
the ``audio_decode`` container sniffer.  Perceptual-transform codecs
(mp3/ogg/aac) remain honestly stubbed in ``stages/multimodal.py`` —
no wheel exists here and a psychoacoustic decoder is out of scope;
the seam upgrades the same way the jpeg one did.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa


def wav_encode(samples: np.ndarray, rate: int = 16000) -> bytes:
    """[n] or [n, ch] int16 (or float in [-1, 1]) -> WAV PCM16 bytes."""
    s = np.asarray(samples)
    if s.ndim == 1:
        s = s[:, None]
    if s.dtype != np.int16:
        if np.issubdtype(s.dtype, np.floating):
            s = np.clip(np.round(s * 32767.0), -32768, 32767).astype(np.int16)
        else:
            s = np.clip(s, -32768, 32767).astype(np.int16)
    n, ch = s.shape
    data = s.astype("<i2").tobytes()
    byte_rate = rate * ch * 2
    block_align = ch * 2
    hdr = (
        b"RIFF"
        + struct.pack("<I", 36 + len(data))
        + b"WAVE"
        + b"fmt "
        + struct.pack("<IHHIIHH", 16, 1, ch, rate, byte_rate, block_align, 16)
        + b"data"
        + struct.pack("<I", len(data))
    )
    return hdr + data


def parse_wav_chunks(buf: bytes) -> tuple[dict, int | None, int, int]:
    """Shared RIFF/WAVE chunk walk -> (fmt fields, fact sample count,
    data offset, data length).

    The one chunk parser both the full decoder and the header-only
    probe (``stages/probe.py``) use, so their numbers cannot drift.
    Raises ValueError on missing/truncated fmt or data chunks and on
    a zero sample rate.
    """
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError("not a WAV (missing RIFF/WAVE header)")
    pos = 12
    n = len(buf)
    fmt = None
    n_fact = None
    data_off = data_len = None
    while pos + 8 <= n:
        tag = buf[pos:pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        off = pos + 8
        if tag == b"fmt ":
            if size < 16 or off + 16 > n:
                raise ValueError("truncated WAV fmt chunk")
            fmt_code, channels, rate = struct.unpack_from("<HHI", buf, off)
            block_align, bits = struct.unpack_from("<HH", buf, off + 12)
            fmt = {"code": fmt_code, "channels": channels, "rate": rate,
                   "block_align": block_align, "bits": bits}
        elif tag == b"fact" and size >= 4 and off + 4 <= n:
            (n_fact,) = struct.unpack_from("<I", buf, off)
        elif tag == b"data":
            data_off, data_len = off, min(size, n - off)
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if fmt is None or data_off is None:
        raise ValueError("truncated WAV (no fmt/data chunk)")
    if not fmt["rate"]:
        raise ValueError("WAV with zero sample rate")
    return fmt, n_fact, data_off, data_len


def wav_decode(buf: bytes) -> tuple[np.ndarray, int]:
    """WAV bytes -> ([n, ch] int16 samples, rate).

    PCM16 native; PCM8 (unsigned) and IEEE float32 are converted to
    int16.  Unknown chunks are skipped per the RIFF spec.
    """
    fmt, n_fact, data_off, data_len = parse_wav_chunks(buf)
    fmt_code, channels, rate = fmt["code"], fmt["channels"], fmt["rate"]
    block_align, bits = fmt["block_align"], fmt["bits"]
    data = buf[data_off:data_off + data_len]
    if fmt_code == 1 and bits == 16:
        s = np.frombuffer(data, "<i2")
    elif fmt_code == 1 and bits == 8:
        s = (np.frombuffer(data, np.uint8).astype(np.int16) - 128) << 8
    elif fmt_code == 3 and bits == 32:
        f = np.frombuffer(data, "<f4").astype(np.float64)
        s = np.clip(np.round(f * 32767.0), -32768, 32767).astype(np.int16)
    elif fmt_code == 7 and bits == 8:  # G.711 mu-law
        s = ulaw_expand(np.frombuffer(data, np.uint8))
    elif fmt_code == 6 and bits == 8:  # G.711 A-law
        s = alaw_expand(np.frombuffer(data, np.uint8))
    elif fmt_code == 17 and bits == 4 and channels == 1:  # IMA ADPCM mono
        if block_align < 5:
            raise ValueError("IMA ADPCM needs block_align >= 5")
        nb = len(data) // block_align
        raw = np.frombuffer(data[: nb * block_align], np.uint8).reshape(
            nb, block_align)
        pred0 = (raw[:, 0].astype(np.int32)
                 | (raw[:, 1].astype(np.int32) << 8))
        pred0 = (pred0 ^ 0x8000) - 0x8000  # sign-extend int16
        idx0 = raw[:, 2].astype(np.int32)
        packed = raw[:, 4:]
        nibs = np.empty((nb, packed.shape[1] * 2), dtype=np.uint8)
        nibs[:, 0::2] = packed & 0x0F  # low nibble = earlier sample
        nibs[:, 1::2] = packed >> 4
        s = _ima_decode_blocks(nibs, pred0, idx0).reshape(-1)
        if n_fact is not None:
            s = s[:n_fact]
    else:
        raise ValueError(f"unsupported WAV format code={fmt_code} bits={bits}")
    ch = max(1, int(channels))
    return s.reshape(-1, ch), int(rate)


# --- G.711 mu-law / A-law (WAV fmt 7 / 6) --------------------------------
#
# Exact Sun g711.c semantics (the canonical public-domain reference):
# segment-table search + shifts, vectorized with np.searchsorted.  The
# invariant tested below is the standard one: expand(compress(x)) is
# within one quantization step AND compress(expand(c)) == c for every
# one of the 256 codes (codec idempotence).

_SEG_UEND = np.array([0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF, 0x1FFF],
                     dtype=np.int32)
_SEG_AEND = np.array([0x1F, 0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF],
                     dtype=np.int32)
_ULAW_BIAS = 0x84  # in the 16-bit domain; 0x21 in the 14-bit search domain
_ULAW_CLIP14 = 8159


def ulaw_compress(s: np.ndarray) -> np.ndarray:
    """int16 PCM -> mu-law bytes (G.711 linear2ulaw), vectorized."""
    x = s.astype(np.int32) >> 2  # 16 -> 14 bit
    neg = x < 0
    mask = np.where(neg, 0x7F, 0xFF)
    x = np.where(neg, -x, x)
    x = np.minimum(x, _ULAW_CLIP14) + (_ULAW_BIAS >> 2)
    seg = np.searchsorted(_SEG_UEND, x)  # first i with x <= uend[i]
    segc = np.minimum(seg, 7)
    uval = (segc << 4) | ((x >> (segc + 1)) & 0xF)
    return (np.where(seg >= 8, 0x7F, uval) ^ mask).astype(np.uint8)


def ulaw_expand(b: np.ndarray) -> np.ndarray:
    """mu-law bytes -> int16 PCM (G.711 ulaw2linear), vectorized."""
    u = (~np.asarray(b, dtype=np.uint8)).astype(np.int32)
    t = (((u & 0xF) << 3) + _ULAW_BIAS) << ((u & 0x70) >> 4)
    return np.where(u & 0x80, _ULAW_BIAS - t, t - _ULAW_BIAS).astype(np.int16)


def alaw_compress(s: np.ndarray) -> np.ndarray:
    """int16 PCM -> A-law bytes (G.711 linear2alaw), vectorized."""
    x = s.astype(np.int32) >> 3  # 16 -> 13 bit
    neg = x < 0
    mask = np.where(neg, 0x55, 0xD5)
    x = np.where(neg, -x - 1, x)  # x in [0, 4095] -> seg always < 8
    seg = np.searchsorted(_SEG_AEND, x)
    aval = (seg << 4) | np.where(seg < 2, (x >> 1) & 0xF, (x >> seg) & 0xF)
    return (aval ^ mask).astype(np.uint8)


def alaw_expand(b: np.ndarray) -> np.ndarray:
    """A-law bytes -> int16 PCM (G.711 alaw2linear), vectorized."""
    a = (np.asarray(b, dtype=np.uint8) ^ 0x55).astype(np.int32)
    t = (a & 0xF) << 4
    seg = (a & 0x70) >> 4
    t = np.where(seg == 0, t + 8,
                 (t + 0x108) << np.maximum(seg - 1, 0))
    return np.where(a & 0x80, t, -t).astype(np.int16)


# --- IMA ADPCM (WAV fmt 17) -----------------------------------------------

_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767], dtype=np.int32)
_IMA_INDEX = np.array([-1, -1, -1, -1, 2, 4, 6, 8], dtype=np.int32)


def _ima_encode_blocks(s2d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[nb, spb] int16 -> (nibbles [nb, spb-1] uint8, pred0, idx0).

    Sequential per block by spec; vectorized across blocks (each numpy
    step advances every block one sample).
    """
    nb, spb = s2d.shape
    pred = s2d[:, 0].astype(np.int32)
    pred0 = pred.copy()
    # Seed each block's step index from its mean |successive diff| —
    # blocks can't inherit the previous block's running index without
    # serializing the encode, and the header stores idx0 so any choice
    # decodes exactly; this one skips the step-adaptation ramp.
    mean_d = np.abs(np.diff(s2d.astype(np.int32), axis=1)).mean(axis=1)
    idx = np.clip(np.searchsorted(_IMA_STEPS, mean_d), 0, 88).astype(np.int32)
    idx0 = idx.copy()
    nibs = np.zeros((nb, spb - 1), dtype=np.uint8)
    for t in range(1, spb):
        step = _IMA_STEPS[idx]
        diff = s2d[:, t].astype(np.int32) - pred
        sign = diff < 0
        d = np.abs(diff)
        delta = np.zeros(nb, dtype=np.int32)
        vpdiff = step >> 3
        ge = d >= step
        delta |= np.where(ge, 4, 0); d = d - np.where(ge, step, 0); vpdiff += np.where(ge, step, 0)
        step = step >> 1
        ge = d >= step
        delta |= np.where(ge, 2, 0); d = d - np.where(ge, step, 0); vpdiff += np.where(ge, step, 0)
        step = step >> 1
        ge = d >= step
        delta |= np.where(ge, 1, 0); vpdiff += np.where(ge, step, 0)
        pred = np.clip(pred + np.where(sign, -vpdiff, vpdiff), -32768, 32767)
        code = delta | np.where(sign, 8, 0)
        nibs[:, t - 1] = code.astype(np.uint8)
        idx = np.clip(idx + _IMA_INDEX[delta], 0, 88)
    return nibs, pred0, idx0


def _ima_decode_blocks(nibs: np.ndarray, pred0: np.ndarray, idx0: np.ndarray) -> np.ndarray:
    """(nibbles [nb, m], per-block initial predictor/index) -> [nb, m+1] int16."""
    nb, m = nibs.shape
    out = np.empty((nb, m + 1), dtype=np.int16)
    pred = pred0.astype(np.int32)
    idx = np.clip(idx0.astype(np.int32), 0, 88)
    out[:, 0] = pred.astype(np.int16)
    for t in range(m):
        step = _IMA_STEPS[idx]
        code = nibs[:, t].astype(np.int32)
        delta = code & 7
        vpdiff = (step >> 3) + np.where(delta & 4, step, 0) \
            + np.where(delta & 2, step >> 1, 0) + np.where(delta & 1, step >> 2, 0)
        pred = np.clip(pred + np.where(code & 8, -vpdiff, vpdiff), -32768, 32767)
        out[:, t + 1] = pred.astype(np.int16)
        idx = np.clip(idx + _IMA_INDEX[delta], 0, 88)
    return out


def _wav_header(fmt_code: int, ch: int, rate: int, bits: int, block_align: int,
                byte_rate: int, data_len: int, n_samples: int,
                extra: bytes = b"") -> bytes:
    fmt_body = struct.pack("<HHIIHH", fmt_code, ch, rate, byte_rate,
                           block_align, bits) + extra
    fact = b"fact" + struct.pack("<II", 4, n_samples)
    riff_len = 4 + (8 + len(fmt_body)) + len(fact) + 8 + data_len
    return (b"RIFF" + struct.pack("<I", riff_len) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt_body)) + fmt_body
            + fact + b"data" + struct.pack("<I", data_len))


def wav_encode_g711(samples: np.ndarray, rate: int = 8000, law: str = "ulaw") -> bytes:
    """[n] int16 mono -> WAV with G.711 mu-law (fmt 7) or A-law (fmt 6)."""
    s = np.asarray(samples, dtype=np.int16).reshape(-1)
    comp = ulaw_compress(s) if law == "ulaw" else alaw_compress(s)
    data = comp.tobytes()
    code = 7 if law == "ulaw" else 6
    return _wav_header(code, 1, rate, 8, 1, rate, len(data), len(s),
                       extra=struct.pack("<H", 0)) + data


def wav_encode_adpcm(samples: np.ndarray, rate: int = 8000,
                     block_align: int = 256) -> bytes:
    """[n] int16 mono -> WAV IMA ADPCM (fmt 17).

    Standard mono block layout: 4-byte state header (predictor int16,
    step index uint8, reserved) + 2 samples/byte, low nibble first.
    The tail block is zero-padded in the nibble area (decoders stop at
    the fact-chunk sample count).
    """
    s = np.asarray(samples, dtype=np.int16).reshape(-1)
    if len(s) == 0:
        raise ValueError("empty signal")
    spb = (block_align - 4) * 2 + 1  # samples per block
    nb = (len(s) + spb - 1) // spb
    padded = np.zeros(nb * spb, dtype=np.int16)
    padded[: len(s)] = s
    # repeat-pad the tail so padding nibbles stay cheap/determinate
    if len(s) < len(padded):
        padded[len(s):] = s[-1]
    blocks = padded.reshape(nb, spb)
    nibs, pred0, idx0 = _ima_encode_blocks(blocks)
    # pack: low nibble = earlier sample
    lo = nibs[:, 0::2]
    hi = nibs[:, 1::2]
    packed = (lo | (hi << 4)).astype(np.uint8)
    hdrs = np.zeros((nb, 4), dtype=np.uint8)
    hdrs[:, 0] = (pred0 & 0xFF).astype(np.uint8)
    hdrs[:, 1] = ((pred0 >> 8) & 0xFF).astype(np.uint8)
    hdrs[:, 2] = idx0.astype(np.uint8)
    data = np.concatenate([hdrs, packed], axis=1).tobytes()
    byte_rate = (rate * block_align + spb - 1) // spb
    extra = struct.pack("<HH", 2, spb)  # cbSize=2, samples/block
    return _wav_header(17, 1, rate, 4, block_align, byte_rate, len(data),
                       len(s), extra=extra) + data


def audio_decode(buf: bytes) -> tuple[np.ndarray, int]:
    """Container-sniffing decode: RIFF/WAVE (PCM/G.711/ADPCM) or FLAC.

    Returns ([n, ch] int samples, rate).  The one seam every audio
    stage goes through, so a new codec upgrades all of them at once.
    """
    if buf[:4] == b"RIFF":
        return wav_decode(buf)
    if buf[:4] == b"fLaC":
        from .flac import flac_decode

        s, rate = flac_decode(buf)
        return s, rate
    raise ValueError("unsupported audio container (expected RIFF/WAVE or FLAC)")


class AudioStats:
    """Map stage: (media_id, bytes) -> per-row audio stats.

    Output: media_id, n_samples (per channel), channels, rate,
    duration6 (s), rms6 (int16 units), peak (max |sample|).  RMS uses
    an exact integer sum of squares before one float sqrt, so the
    6-dp rounding is reproducible in SQL.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, ns, chs, rates, durs, rmss, peaks = [], [], [], [], [], [], []
        for i in range(batch.num_rows):
            s, rate = audio_decode(batch["bytes"][i].as_py())
            n, ch = s.shape
            sq = int((s.astype(np.int64) ** 2).sum())
            ids.append(batch["media_id"][i].as_py())
            ns.append(n)
            chs.append(ch)
            rates.append(rate)
            durs.append(round(n / rate, 6))
            rmss.append(round(float(np.sqrt(sq / (n * ch))), 6) if n else 0.0)
            peaks.append(int(np.abs(s.astype(np.int64)).max()) if n else 0)
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "n_samples": pa.array(ns, pa.int64()),
                "channels": pa.array(chs, pa.int64()),
                "rate": pa.array(rates, pa.int64()),
                "duration6": pa.array(durs, pa.float64()),
                "rms6": pa.array(rmss, pa.float64()),
                "peak": pa.array(peaks, pa.int64()),
            }
        )


class AudioClips:
    """Map stage: window fan-out (1 row -> n standalone clips).

    ``clip_s`` seconds per clip, ``hop_s`` hop (defaults to clip_s —
    tumbling); ragged tail kept iff >= ``min_frac`` of a clip.  Each
    output row re-encodes its window as a standalone WAV plus an
    integer sample-sum column (cheap content fingerprint for gates).
    """

    def __init__(self, clip_s: float = 1.0, hop_s: float | None = None,
                 min_frac: float = 0.5):
        self.clip_s = clip_s
        self.hop_s = hop_s if hop_s is not None else clip_s
        self.min_frac = min_frac

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "clip_idx": [], "n_samples": [],
               "sample_sum": [], "bytes": []}
        for i in range(batch.num_rows):
            s, rate = audio_decode(batch["bytes"][i].as_py())
            mid = batch["media_id"][i].as_py()
            clip = int(round(self.clip_s * rate))
            hop = int(round(self.hop_s * rate))
            n = s.shape[0]
            idx = 0
            for start in range(0, n, hop):
                piece = s[start:start + clip]
                if piece.shape[0] < max(1, int(clip * self.min_frac)):
                    break
                out["media_id"].append(mid)
                out["clip_idx"].append(idx)
                out["n_samples"].append(piece.shape[0])
                out["sample_sum"].append(int(piece.astype(np.int64).sum()))
                out["bytes"].append(wav_encode(piece, rate))
                idx += 1
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "clip_idx": pa.array(out["clip_idx"], pa.int64()),
                "n_samples": pa.array(out["n_samples"], pa.int64()),
                "sample_sum": pa.array(out["sample_sum"], pa.int64()),
                "bytes": pa.array(out["bytes"], pa.binary()),
            }
        )


# --- resampling (polyphase windowed-sinc) ----------------------------------


def _resample_filter_bank(L: int, M: int, half_taps: int = 16
                          ) -> tuple[np.ndarray, int]:
    """Zero-phase polyphase bank for rational L/M resampling.

    Returns (bank [L, 2Q+1], Q).  In the L-upsampled domain the ideal
    kernel is h[d] = fc*sinc(fc*d)*hann, d in [-H, H], H = half_taps *
    max(L, M), fc = 1/max(L, M) (anti-image + anti-alias).  Output j
    sits at u = j*M = r + base*L; y[j] = sum_q h[r + qL] * x[base - q].
    Rows are stored pre-flipped so the dot runs over ascending input
    indices base-Q..base+Q, and each row is normalized to unity DC
    gain (a flat signal passes exactly)."""
    top = max(L, M)
    H = half_taps * top
    d = np.arange(-H, H + 1, dtype=np.float64)
    fc = 1.0 / top
    h = fc * np.sinc(fc * d) * np.hanning(2 * H + 1)
    Q = -(-H // L)  # ceil
    r = np.arange(L, dtype=np.int64)[:, None]
    t = np.arange(2 * Q + 1, dtype=np.int64)[None, :]
    idx = H + r + (Q - t) * L  # pre-flipped: column t pairs with x[base-Q+t]
    valid = (idx >= 0) & (idx <= 2 * H)
    bank = np.where(valid, h[np.clip(idx, 0, 2 * H)], 0.0)
    bank /= bank.sum(axis=1, keepdims=True)
    return bank, Q


def resample_audio(s: np.ndarray, src_rate: int, dst_rate: int,
                   half_taps: int = 16) -> np.ndarray:
    """[n] or [n, ch] int16 -> [m, ch] int16 at dst_rate.

    Rational-ratio zero-phase polyphase windowed-sinc (the standard
    speech-pipeline resampler shape), fully vectorized: one [m, 2Q+1]
    gather of the edge-padded signal times the per-output phase rows
    of the filter bank.  m = ceil(n * L / M).
    """
    import math

    x = np.asarray(s)
    if x.ndim == 1:
        x = x[:, None]
    if src_rate == dst_rate:
        return x.astype(np.int16)
    g = math.gcd(int(src_rate), int(dst_rate))
    L, M = dst_rate // g, src_rate // g
    n, ch = x.shape
    m = -(-n * L // M)  # ceil
    bank, Q = _resample_filter_bank(L, M, half_taps)
    jM = np.arange(m, dtype=np.int64) * M
    phase = (jM % L).astype(np.int64)
    base = jM // L
    idx = base[:, None] + np.arange(2 * Q + 1, dtype=np.int64)[None, :] - Q
    np.clip(idx, 0, n - 1, out=idx)  # edge-pad
    w = bank[phase]  # [m, 2Q+1]
    out = np.empty((m, ch), np.int16)
    for c in range(ch):
        y = (x[idx, c].astype(np.float64) * w).sum(axis=1)
        out[:, c] = np.clip(np.round(y), -32768, 32767).astype(np.int16)
    return out


class AudioResample:
    """Map stage: re-encode every row's audio at ``dst_rate``.

    Output: media_id, src_rate, n_in, n_out, rms_ratio6 (decoded-RMS
    preservation check — ~1.0 for band-limited content), bytes (WAV
    PCM16 at dst_rate).
    """

    def __init__(self, dst_rate: int = 16000):
        self.dst_rate = dst_rate

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "src_rate": [], "n_in": [], "n_out": [],
               "rms_ratio6": [], "bytes": []}
        for i in range(batch.num_rows):
            s, rate = audio_decode(batch["bytes"][i].as_py())
            y = resample_audio(s, rate, self.dst_rate)
            r_in = float(np.sqrt(np.mean(s.astype(np.float64) ** 2))) or 1.0
            r_out = float(np.sqrt(np.mean(y.astype(np.float64) ** 2)))
            out["media_id"].append(batch["media_id"][i].as_py())
            out["src_rate"].append(rate)
            out["n_in"].append(s.shape[0])
            out["n_out"].append(y.shape[0])
            out["rms_ratio6"].append(round(r_out / r_in, 6))
            out["bytes"].append(wav_encode(y, self.dst_rate))
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "src_rate": pa.array(out["src_rate"], pa.int64()),
                "n_in": pa.array(out["n_in"], pa.int64()),
                "n_out": pa.array(out["n_out"], pa.int64()),
                "rms_ratio6": pa.array(out["rms_ratio6"], pa.float64()),
                "bytes": pa.array(out["bytes"], pa.binary()),
            }
        )


# --- spectrogram features ---------------------------------------------------


def _framed_power(mono: np.ndarray, win: int, hop: int):
    """Shared framing + Parseval-weighted power for the FFT stages.

    -> (nf, time_energy int64 [nf], mag2 [nf, win//2+1], power
    [nf, win//2+1]) with sum(power, axis=1) == time_energy in exact
    arithmetic (rfft bins 1..win/2-1 weighted 2x).  nf=0 tuple when
    the clip is shorter than one window.
    """
    nf = (len(mono) - win) // hop + 1 if len(mono) >= win else 0
    if nf <= 0:
        return 0, None, None, None
    starts = np.arange(nf) * hop
    frames = mono[starts[:, None] + np.arange(win)[None, :]]
    te = (frames.astype(np.int64) ** 2).sum(axis=1)
    mag2 = np.abs(np.fft.rfft(frames.astype(np.float64), axis=1)) ** 2
    w = np.full(mag2.shape[1], 2.0)
    w[0] = 1.0
    if win % 2 == 0:
        w[-1] = 1.0
    return nf, te, mag2, mag2 * w / win


class AudioSpectrogram:
    """Map stage: framed FFT features, one output row per frame.

    Rectangular window (win, hop), np.fft.rfft over the whole [frames,
    win] matrix at once.  Output per frame: time_energy (EXACT integer
    sum of squares — SQL-replicable), parseval_ok (1 iff the spectral
    energy sum_k w_k |X_k|^2 / win matches time_energy to 1e-9 rel —
    true only if the FFT is actually correct), dominant_bin, and
    dominant_mag6.  Mono mixdown (integer channel mean) first.
    """

    def __init__(self, win: int = 256, hop: int = 128):
        self.win = win
        self.hop = hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        win, hop = self.win, self.hop
        out = {"media_id": [], "frame_idx": [], "time_energy": [],
               "parseval_ok": [], "dominant_bin": [], "dominant_mag6": []}
        for i in range(batch.num_rows):
            s, _rate = audio_decode(batch["bytes"][i].as_py())
            mono = s.astype(np.int64).sum(axis=1) // s.shape[1]
            nf, te, mag2, pw = _framed_power(mono, win, hop)
            if nf <= 0:
                continue
            se = pw.sum(axis=1)
            ok = (np.abs(se - te) <= 1e-9 * np.maximum(te, 1)).astype(np.int64)
            dom = mag2[:, 1:].argmax(axis=1) + 1  # skip DC
            mid = batch["media_id"][i].as_py()
            out["media_id"].extend([mid] * nf)
            out["frame_idx"].extend(range(nf))
            out["time_energy"].extend(te.tolist())
            out["parseval_ok"].extend(ok.tolist())
            out["dominant_bin"].extend(dom.tolist())
            out["dominant_mag6"].extend(
                np.round(np.sqrt(mag2[np.arange(nf), dom]), 6).tolist())
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int64()),
                "time_energy": pa.array(out["time_energy"], pa.int64()),
                "parseval_ok": pa.array(out["parseval_ok"], pa.int64()),
                "dominant_bin": pa.array(out["dominant_bin"], pa.int64()),
                "dominant_mag6": pa.array(out["dominant_mag6"], pa.float64()),
            }
        )


class AudioFingerprint:
    """Map stage: (media_id, bytes) -> 64-bit acoustic fingerprint.

    Haitsma-Kalker-style: framed rfft -> 17 log-spaced band energies ->
    sign of the time-frequency double difference
    (E[f,b]-E[f,b+1]) - (E[f-1,b]-E[f-1,b+1]) gives 16 bits per frame;
    4 frames sampled evenly across the clip concatenate to an int64.
    Scale-invariant by construction (energies scale uniformly, signs
    survive), so amplitude-scaled / inverted / DC-shifted re-encodes of
    the same audio collide — feed the result straight into the
    ``components.image_dedup`` machinery (banded Hamming -> CC -> rep)
    with ``hash_col="afp"``.
    """

    def __init__(self, win: int = 256, hop: int = 128):
        self.win = win
        self.hop = hop
        # 18 log-spaced band edges over bins [1, win//2 + 1) -> 17 bands
        nb = win // 2 + 1  # rfft bin count
        edges = np.unique(np.round(np.geomspace(1, nb, 18)).astype(np.int64))
        if len(edges) < 18:  # rounding collisions: fill from a linear grid
            fill = np.setdiff1d(
                np.linspace(1, nb, 18).astype(np.int64), edges)
            edges = np.unique(np.concatenate([edges, fill]))[:18]
        self.edges = edges

    def __call__(self, batch: pa.Table) -> pa.Table:
        win, hop = self.win, self.hop
        keep_idx, fps = [], []
        for i in range(batch.num_rows):
            s, _rate = audio_decode(batch["bytes"][i].as_py())
            mono = s.astype(np.int64).sum(axis=1) // s.shape[1]
            nf = (len(mono) - win) // hop + 1 if len(mono) >= win else 0
            if nf < 6:
                continue  # too short to fingerprint
            starts = np.arange(nf) * hop
            frames = mono[starts[:, None] + np.arange(win)[None, :]]
            mag2 = np.abs(np.fft.rfft(frames.astype(np.float64), axis=1)) ** 2
            bands = np.add.reduceat(mag2[:, :self.edges[-1]],
                                    self.edges[:-1], axis=1)
            d = np.diff(bands, axis=1)          # [nf, 16] spectral slope
            dd = d[1:] - d[:-1]                 # [nf-1, 16] time diff
            bits = (dd > 0).astype(np.uint64)   # 16 bits per frame
            words = (bits << np.arange(16, dtype=np.uint64)[None, :]).sum(axis=1)
            pick = (np.arange(1, 5) * (len(words) // 5)).clip(0, len(words) - 1)
            fp = np.uint64(0)
            for j, p in enumerate(pick):
                fp |= words[p] << np.uint64(16 * j)
            keep_idx.append(i)
            fps.append(int(fp.astype(np.int64)))
        # media_id keeps the INPUT column's type (string or int ids both
        # flow through the dedup machinery)
        return pa.table(
            {
                "media_id": batch["media_id"].take(
                    pa.array(keep_idx, pa.int64())),
                "afp": pa.array(fps, pa.int64()),
            }
        )


class SilenceSegments:
    """Map stage: energy-threshold voice-activity segmentation.

    Frames of ``win`` samples (non-overlapping), EXACT integer frame
    energy; frames with energy >= ``threshold`` are active.  Runs of
    active frames closer than ``max_gap`` frames merge into one
    segment (the standard VAD smoothing).  Output one row per kept
    segment: media_id, seg_idx, start_frame, end_frame (exclusive),
    n_frames, energy (exact integer sum) — every column SQL-replicable
    gaps-and-islands style.
    """

    def __init__(self, win: int = 256, threshold: int = 1_000_000,
                 max_gap: int = 1):
        self.win = win
        self.threshold = threshold
        self.max_gap = max_gap

    def __call__(self, batch: pa.Table) -> pa.Table:
        win = self.win
        out = {"media_id": [], "seg_idx": [], "start_frame": [],
               "end_frame": [], "n_frames": [], "energy": []}
        for i in range(batch.num_rows):
            s, _rate = audio_decode(batch["bytes"][i].as_py())
            mono = s.astype(np.int64).sum(axis=1) // s.shape[1]
            nf = len(mono) // win
            if nf == 0:
                continue
            fr = mono[: nf * win].reshape(nf, win)
            en = (fr ** 2).sum(axis=1)
            act = np.flatnonzero(en >= self.threshold)
            if len(act) == 0:
                continue
            # merge runs separated by <= max_gap inactive frames
            # (consecutive active frames have diff 1, so a gap of g
            # inactive frames shows as diff g+1)
            brk = np.flatnonzero(np.diff(act) > self.max_gap + 1)
            seg_start = act[np.concatenate([[0], brk + 1])]
            seg_end = act[np.concatenate([brk, [len(act) - 1]])] + 1
            mid = batch["media_id"][i].as_py()
            for j, (a, b) in enumerate(zip(seg_start.tolist(),
                                           seg_end.tolist())):
                out["media_id"].append(mid)
                out["seg_idx"].append(j)
                out["start_frame"].append(a)
                out["end_frame"].append(b)
                out["n_frames"].append(b - a)
                out["energy"].append(int(en[a:b].sum()))
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "seg_idx": pa.array(out["seg_idx"], pa.int64()),
                "start_frame": pa.array(out["start_frame"], pa.int64()),
                "end_frame": pa.array(out["end_frame"], pa.int64()),
                "n_frames": pa.array(out["n_frames"], pa.int64()),
                "energy": pa.array(out["energy"], pa.int64()),
            }
        )


def _mel_filterbank(n_mels: int, n_bins: int, rate: int) -> np.ndarray:
    """[n_mels, n_bins] triangular mel-spaced filters, column-
    normalized to a partition of unity (every bin's filter weights
    sum to exactly 1), so summed filterbank energy EQUALS spectral
    energy — the conservation invariant the gate checks."""
    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, np.float64) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m, np.float64) / 2595.0) - 1.0)

    fmax = rate / 2.0
    edges = mel_to_hz(np.linspace(0, hz_to_mel(fmax), n_mels + 2))
    bin_hz = np.arange(n_bins) * fmax / (n_bins - 1)
    fb = np.zeros((n_mels, n_bins), np.float64)
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (bin_hz - lo) / max(mid - lo, 1e-9)
        down = (hi - bin_hz) / max(hi - mid, 1e-9)
        fb[m] = np.clip(np.minimum(up, down), 0.0, 1.0)
    col = fb.sum(axis=0)
    # partition of unity: renormalize columns; bins outside every
    # triangle (only possible at the extremes) go to the nearest band
    dead = col <= 0
    if dead.any():
        fb[0, dead & (bin_hz < edges[1])] = 1.0
        fb[-1, dead & (bin_hz >= edges[1])] = 1.0
        col = fb.sum(axis=0)
    return fb / col[None, :]


class AudioMelBands:
    """Map stage: mel filterbank energies per frame (the ASR
    feature-extraction front end).

    Framed rfft -> Parseval-weighted power -> [n_mels] triangular
    partition-of-unity filterbank.  Because the filters sum to 1 at
    every bin, sum(mel energies) == spectral energy == EXACT integer
    time-domain energy — emitted as ``conserve_ok`` so a SQL oracle
    gates the whole FFT+filterbank chain.  Also emits ``top_mel``
    (argmax band).
    """

    def __init__(self, win: int = 256, hop: int = 128, n_mels: int = 20):
        self.win = win
        self.hop = hop
        self.n_mels = n_mels
        self._fb = None
        self._rate = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        win, hop = self.win, self.hop
        out = {"media_id": [], "frame_idx": [], "time_energy": [],
               "conserve_ok": [], "top_mel": []}
        for i in range(batch.num_rows):
            s, rate = audio_decode(batch["bytes"][i].as_py())
            if self._fb is None or self._rate != rate:
                self._fb = _mel_filterbank(self.n_mels, win // 2 + 1, rate)
                self._rate = rate
            mono = s.astype(np.int64).sum(axis=1) // s.shape[1]
            nf, te, _mag2, pw = _framed_power(mono, win, hop)
            if nf <= 0:
                continue
            mel = pw @ self._fb.T  # [nf, n_mels]
            ok = (np.abs(mel.sum(axis=1) - te)
                  <= 1e-9 * np.maximum(te, 1)).astype(np.int64)
            mid = batch["media_id"][i].as_py()
            out["media_id"].extend([mid] * nf)
            out["frame_idx"].extend(range(nf))
            out["time_energy"].extend(te.tolist())
            out["conserve_ok"].extend(ok.tolist())
            out["top_mel"].extend(mel.argmax(axis=1).tolist())
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int64()),
                "time_energy": pa.array(out["time_energy"], pa.int64()),
                "conserve_ok": pa.array(out["conserve_ok"], pa.int64()),
                "top_mel": pa.array(out["top_mel"], pa.int64()),
            }
        )
