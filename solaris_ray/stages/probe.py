"""Container probing — metadata without sample decode.

A 100-TB media corpus needs duration / rate / channel metadata for
every row long before (and often instead of) decoding samples: shard
layout by duration, rate-bucket batching, corpus stats.  mp3 and ogg
payloads stay honestly *undecodable* here (psychoacoustic decoders are
out of scope — see ``stages/multimodal.py``), but their metadata is
pure struct:

- ``mp3_probe``: ID3v2 skip, MPEG audio frame-header walk (version/
  layer/bitrate/samplerate tables, padded frame lengths), Xing/Info
  VBR frame count when present (at scale that reads ONE frame instead
  of walking millions).
- ``ogg_probe``: OggS page walk — Vorbis/Opus identification header
  (channels, rate) + last-page granule position -> duration.
- ``MediaProbe``: map stage sniffing RIFF/FLAC/MP3/OGG/AVI and
  emitting one uniform metadata row per input.

Every branch is HEADER-ONLY — a probe over a 100-TB corpus must not
pay the codec (FLAC's STREAMINFO carries everything in 38 bytes; WAV
sample counts come from chunk sizes / the fact chunk).  Tests assert
probe numbers agree with the real decoders' numbers on every format.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

# MPEG audio tables: bitrate kbps by [version_group][layer][index]
_MP3_BITRATE_V1_L3 = [0, 32, 40, 48, 56, 64, 80, 96, 112, 128, 160,
                      192, 224, 256, 320]
_MP3_BITRATE_V2_L3 = [0, 8, 16, 24, 32, 40, 48, 56, 64, 80, 96, 112,
                      128, 144, 160]
_MP3_RATES = {3: [44100, 48000, 32000],   # MPEG1
              2: [22050, 24000, 16000],   # MPEG2
              0: [11025, 12000, 8000]}    # MPEG2.5


def _id3v2_size(buf: bytes) -> int:
    if buf[:3] != b"ID3" or len(buf) < 10:
        return 0
    b = buf[6:10]
    return 10 + ((b[0] & 0x7F) << 21 | (b[1] & 0x7F) << 14
                 | (b[2] & 0x7F) << 7 | (b[3] & 0x7F))


def mp3_probe(buf: bytes) -> dict:
    """MPEG-1/2/2.5 Layer III metadata: frame walk (or Xing shortcut).

    Returns dict(n_frames, sample_rate, channels, duration6, vbr,
    bitrate_kbps — the mode over walked frames).
    """
    pos = _id3v2_size(buf)
    n = len(buf)
    n_frames = 0
    rate = None
    channels = None
    bitrates: dict[int, int] = {}
    samples_per_frame = 1152
    first = True
    while pos + 4 <= n:
        h = buf[pos:pos + 4]
        if not (h[0] == 0xFF and (h[1] & 0xE0) == 0xE0):
            if n_frames == 0:
                pos += 1  # resync before the first frame only
                continue
            break
        ver = (h[1] >> 3) & 0x03       # 3=MPEG1, 2=MPEG2, 0=MPEG2.5
        layer = (h[1] >> 1) & 0x03     # 1 = Layer III
        if ver == 1 or layer != 1:
            if n_frames == 0:
                pos += 1
                continue
            break
        br_idx = (h[2] >> 4) & 0x0F
        sr_idx = (h[2] >> 2) & 0x03
        if br_idx in (0, 15) or sr_idx == 3:
            break  # free-form / invalid
        pad = (h[2] >> 1) & 0x01
        mode = (h[3] >> 6) & 0x03
        rate = _MP3_RATES[ver][sr_idx]
        channels = 1 if mode == 3 else 2
        if ver == 3:
            kbps = _MP3_BITRATE_V1_L3[br_idx]
            samples_per_frame = 1152
            flen = 144 * kbps * 1000 // rate + pad
        else:
            kbps = _MP3_BITRATE_V2_L3[br_idx]
            samples_per_frame = 576
            flen = 72 * kbps * 1000 // rate + pad
        bitrates[kbps] = bitrates.get(kbps, 0) + 1
        if first:
            first = False
            # Xing/Info VBR header: frame count without the walk.
            # Side-info size: MPEG1 32/17 bytes (stereo/mono), MPEG2
            # 17/9; offset = 4-byte header + side info.
            side = (36 if mode != 3 else 21) if ver == 3 else (
                21 if mode != 3 else 13)
            lo = max(pos + side - 15, pos + 4)  # clamped search window
            tag = buf[lo:pos + flen]
            for magic in (b"Xing", b"Info"):
                j = tag.find(magic)
                if 0 <= j and j + 12 <= len(tag):
                    flags = struct.unpack_from(">I", tag, j + 4)[0]
                    if flags & 1:
                        n_frames = struct.unpack_from(">I", tag, j + 8)[0]
                        dur = round(n_frames * samples_per_frame / rate, 6)
                        return {
                            "n_frames": n_frames, "sample_rate": rate,
                            "channels": channels, "duration6": dur,
                            "vbr": 1, "bitrate_kbps": kbps,
                        }
            # Fraunhofer VBRI: fixed offset 32 past the 4-byte header,
            # frame count at +14 (big-endian u32)
            if buf[pos + 36:pos + 40] == b"VBRI" and pos + 54 <= n:
                n_frames = struct.unpack_from(">I", buf, pos + 50)[0]
                dur = round(n_frames * samples_per_frame / rate, 6)
                return {
                    "n_frames": n_frames, "sample_rate": rate,
                    "channels": channels, "duration6": dur,
                    "vbr": 1, "bitrate_kbps": kbps,
                }
        n_frames += 1
        pos += max(flen, 4)
    if rate is None:
        raise ValueError("not an MPEG audio stream")
    top = max(bitrates.items(), key=lambda kv: kv[1])[0]
    return {
        "n_frames": n_frames, "sample_rate": rate, "channels": channels,
        "duration6": round(n_frames * samples_per_frame / rate, 6),
        "vbr": int(len(bitrates) > 1), "bitrate_kbps": top,
    }


def ogg_probe(buf: bytes) -> dict:
    """Ogg container metadata: Vorbis or Opus identification header +
    final granule position.  Returns dict(codec, sample_rate,
    channels, duration6, n_pages)."""
    if buf[:4] != b"OggS":
        raise ValueError("not an Ogg stream")
    pos = 0
    n = len(buf)
    codec = None
    rate = None
    channels = None
    pre_skip = 0
    last_granule = 0
    n_pages = 0
    while pos + 27 <= n and buf[pos:pos + 4] == b"OggS":
        granule = struct.unpack_from("<q", buf, pos + 6)[0]
        nsegs = buf[pos + 26]
        lacing = buf[pos + 27:pos + 27 + nsegs]
        body_len = int(sum(lacing))
        body = buf[pos + 27 + nsegs:pos + 27 + nsegs + body_len]
        if codec is None:
            if body[:7] == b"\x01vorbis":
                if len(body) < 16:
                    raise ValueError("truncated Vorbis id header")
                codec = "vorbis"
                channels = body[11]
                rate = struct.unpack_from("<I", body, 12)[0]
            elif body[:8] == b"OpusHead":
                if len(body) < 12:
                    raise ValueError("truncated Opus id header")
                codec = "opus"
                channels = body[9]
                pre_skip = struct.unpack_from("<H", body, 10)[0]
                rate = 48000  # opus granules always run at 48 kHz
        if granule >= 0:
            last_granule = max(last_granule, granule)
        n_pages += 1
        pos += 27 + nsegs + body_len
    if codec is None or not rate:
        raise ValueError("no Vorbis/Opus identification header")
    samples = max(last_granule - pre_skip, 0)
    return {
        "codec": codec, "sample_rate": int(rate), "channels": int(channels),
        "duration6": round(samples / rate, 6), "n_pages": n_pages,
    }


def _wav_header_probe(buf: bytes) -> dict:
    """WAV metadata from the fmt/fact/data chunk HEADERS only — no
    sample decode (a probe over a 100-TB corpus must not pay the
    codec).  Shares ``audio.parse_wav_chunks`` with the full decoder
    so probe and decode numbers cannot drift.  n_units derivation per
    format family: PCM/G.711 from data size / block alignment, IMA
    ADPCM from the fact chunk (or block arithmetic when absent)."""
    from .audio import parse_wav_chunks

    fmt, n_fact, _off, data_len = parse_wav_chunks(buf)
    fmt_code, rate = fmt["code"], fmt["rate"]
    block_align, bits = fmt["block_align"], fmt["bits"]
    ch = max(1, int(fmt["channels"]))
    if fmt_code in (1, 3):  # PCM / float
        samples = data_len // max(1, (bits // 8) * ch)
        codec = "pcm"
    elif fmt_code in (6, 7):  # G.711
        samples = n_fact if n_fact is not None else data_len // ch
        codec = "g711a" if fmt_code == 6 else "g711u"
    elif fmt_code == 17:  # IMA ADPCM
        spb = (block_align - 4) * 2 + 1
        samples = (n_fact if n_fact is not None
                   else (data_len // max(block_align, 1)) * spb)
        codec = "adpcm"
    else:
        raise ValueError(f"unsupported WAV format code={fmt_code}")
    return {"container": "wav", "codec": codec, "sample_rate": int(rate),
            "channels": ch, "n_units": int(samples),
            "duration6": round(samples / rate, 6)}


def _flac_header_probe(buf: bytes) -> dict:
    """FLAC metadata from STREAMINFO only (the first 38 bytes after
    the magic carry rate/channels/bps/total) — no frame decode."""
    pos = 4
    while True:
        hdr = buf[pos:pos + 4]
        if len(hdr) < 4:
            raise ValueError("flac: truncated metadata")
        last, btype = hdr[0] >> 7, hdr[0] & 0x7F
        ln = int.from_bytes(hdr[1:4], "big")
        body = buf[pos + 4:pos + 4 + ln]
        if btype == 0:
            if len(body) < 18:
                raise ValueError("flac: truncated STREAMINFO")
            raw = int.from_bytes(body[10:18], "big")
            rate = raw >> 44
            channels = ((raw >> 41) & 0x7) + 1
            total = raw & ((1 << 36) - 1)
            if not rate:
                raise ValueError("flac: zero sample rate")
            return {"container": "flac", "codec": "flac",
                    "sample_rate": int(rate), "channels": int(channels),
                    "n_units": int(total),
                    "duration6": round(total / rate, 6)}
        pos += 4 + ln
        if last:
            break
    raise ValueError("flac: no STREAMINFO")


def media_probe(buf: bytes) -> dict:
    """Sniff + probe any supported container.  Uniform keys:
    container, codec, sample_rate, channels, n_units, duration6."""
    if buf[:4] == b"RIFF" and buf[8:12] == b"WAVE":
        return _wav_header_probe(buf)
    if buf[:4] == b"RIFF" and buf[8:12] == b"AVI ":
        from .video import avi_info

        info = avi_info(buf)
        if not info["fps"]:
            raise ValueError("AVI with zero frame rate")
        return {"container": "avi", "codec": "mjpeg",
                "sample_rate": info["fps"], "channels": 3,
                "n_units": info["n_frames"],
                "duration6": round(info["n_frames"] / info["fps"], 6)}
    if buf[:4] == b"fLaC":
        return _flac_header_probe(buf)
    if buf[:4] == b"OggS":
        o = ogg_probe(buf)
        return {"container": "ogg", "codec": o["codec"],
                "sample_rate": o["sample_rate"], "channels": o["channels"],
                "n_units": o["n_pages"], "duration6": o["duration6"]}
    if buf[:3] == b"ID3" or (len(buf) > 1 and buf[0] == 0xFF
                             and (buf[1] & 0xE0) == 0xE0):
        m = mp3_probe(buf)
        return {"container": "mp3", "codec": "mp3",
                "sample_rate": m["sample_rate"], "channels": m["channels"],
                "n_units": m["n_frames"], "duration6": m["duration6"]}
    raise ValueError("unrecognized media container")


class MediaProbe:
    """Map stage: (media_id, bytes) -> one metadata row each."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "container": [], "codec": [],
               "sample_rate": [], "channels": [], "n_units": [],
               "duration6": []}
        for i in range(batch.num_rows):
            m = media_probe(batch["bytes"][i].as_py())
            out["media_id"].append(batch["media_id"][i].as_py())
            for k in ("container", "codec", "sample_rate", "channels",
                      "n_units", "duration6"):
                out[k].append(m[k])
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "container": pa.array(out["container"], pa.string()),
                "codec": pa.array(out["codec"], pa.string()),
                "sample_rate": pa.array(out["sample_rate"], pa.int64()),
                "channels": pa.array(out["channels"], pa.int64()),
                "n_units": pa.array(out["n_units"], pa.int64()),
                "duration6": pa.array(out["duration6"], pa.float64()),
            }
        )


# --- synthetic container builders (tests + gates) ---------------------------
#
# We can't ENCODE mp3/ogg audio (out of scope), but valid containers
# with zeroed payloads are constructible from the spec — the probe
# reads only headers, so these exercise every header path for real.


def make_mp3(n_frames: int, rate: int = 44100, kbps: int = 128,
             stereo: bool = True, id3: bool = False) -> bytes:
    """A structurally valid MPEG1 Layer III stream with zero payloads."""
    ri = {44100: 0, 48000: 1, 32000: 2}[rate]
    bi = _MP3_BITRATE_V1_L3.index(kbps)
    mode = 0 if stereo else 3
    out = []
    if id3:
        body = b"\x00" * 100
        out.append(b"ID3\x03\x00\x00" + bytes(
            [(len(body) >> 21) & 0x7F, (len(body) >> 14) & 0x7F,
             (len(body) >> 7) & 0x7F, len(body) & 0x7F]) + body)
    hdr = bytes([0xFF, 0xFB, (bi << 4) | (ri << 2), mode << 6])
    flen = 144 * kbps * 1000 // rate
    frame = hdr + b"\x00" * (flen - 4)
    out.extend([frame] * n_frames)
    return b"".join(out)


def _ogg_page(granule: int, seq: int, body: bytes, flags: int = 0,
              serial: int = 1) -> bytes:
    """Serialize one Ogg page (zero CRC — fine for header probing)."""
    lacing = []
    rem = len(body)
    while rem >= 255:
        lacing.append(255)
        rem -= 255
    lacing.append(rem)
    hdr = (b"OggS\x00" + bytes([flags]) + struct.pack("<q", granule)
           + struct.pack("<I", serial) + struct.pack("<I", seq)
           + struct.pack("<I", 0) + bytes([len(lacing)])
           + bytes(lacing))
    return hdr + body


def make_ogg_vorbis(n_samples: int, rate: int = 16000,
                    channels: int = 1, n_audio_pages: int = 3) -> bytes:
    """A structurally valid Ogg Vorbis container: identification page
    + zero-payload audio pages whose last granule is ``n_samples``."""
    ident = (b"\x01vorbis" + struct.pack("<I", 0) + bytes([channels])
             + struct.pack("<I", rate) + b"\x00" * 16 + b"\x01")
    pages = [_ogg_page(0, 0, ident, flags=2)]
    for j in range(n_audio_pages):
        g = n_samples * (j + 1) // n_audio_pages
        pages.append(_ogg_page(g, j + 1, b"\x00" * 64,
                               flags=4 if j == n_audio_pages - 1 else 0))
    return b"".join(pages)


def make_ogg_opus(n_samples_48k: int, pre_skip: int = 312,
                  channels: int = 1, n_audio_pages: int = 3) -> bytes:
    """A structurally valid Ogg Opus container: OpusHead id page +
    zero-payload audio pages; final granule = pre_skip + samples (the
    decoder subtracts pre-skip per RFC 7845)."""
    ident = (b"OpusHead" + bytes([1, channels])
             + struct.pack("<H", pre_skip) + struct.pack("<I", 48000)
             + struct.pack("<h", 0) + bytes([0]))
    pages = [_ogg_page(0, 0, ident, flags=2, serial=2)]
    for j in range(n_audio_pages):
        g = pre_skip + n_samples_48k * (j + 1) // n_audio_pages
        pages.append(_ogg_page(g, j + 1, b"\x00" * 64, serial=2,
                               flags=4 if j == n_audio_pages - 1 else 0))
    return b"".join(pages)
