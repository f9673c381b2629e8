"""Video columns — MJPEG-AVI codec + map-stage frame classes.

The driver mandate treats video as an opaque ``binary`` column with
typed metadata and frame-sampling as a ``map_batches``
stage.  No video library exists in this container, but AVI is a
pure-struct RIFF container (same discipline as ``stages/audio.py``)
and Motion-JPEG stores each frame as a standalone baseline JPEG —
which ``raster/jpeg.py`` already encodes and decodes for real.  So
MJPEG-AVI video decodes for REAL here:

- ``avi_encode``: frames ``[n, h, w, 3|1]`` uint8 -> MJPEG AVI bytes
  (RIFF ``hdrl``(avih+strl) + ``movi`` of ``00dc`` JPEG chunks +
  ``idx1`` keyframe index).
- ``avi_info``: header parse only — n_frames / w / h / fps without
  touching a single frame bitstream (the metadata surface).
- ``avi_frame_ranges``: byte ranges of every frame chunk from one
  linear container scan — the seek index that lets a sampler decode
  ONLY the frames it keeps.  At 100 TB this is the difference between
  decoding 10% and 100% of the corpus.
- ``avi_decode_frame`` / ``avi_decode``: per-frame and whole-clip
  pixel decode via the in-repo JPEG codec.
- ``VideoStats``: per-row container metadata (exact, no pixel work).

Foreign codecs (H.264/VP9/AV1 bitstreams) remain honestly stubbed in
``stages/multimodal.py``'s FrameSampler fake path — an entropy-coded
motion-compensated decoder is out of scope; the seam upgrades the same
way the jpeg one did.

Reference parity target: the reference consumes video only as
pre-extracted frame rasters (solaris works on imagery); frame
sampling here is the engine-side analogue of its chip/tile fan-out
(/root/reference/solaris/tile/raster_tile.py window loop).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..raster.jpeg import jpeg_decode, jpeg_encode


def _chunk(tag: bytes, body: bytes) -> bytes:
    pad = b"\x00" if len(body) & 1 else b""
    return tag + struct.pack("<I", len(body)) + body + pad


def _list(kind: bytes, body: bytes) -> bytes:
    return _chunk(b"LIST", kind + body)


def avi_encode(frames, fps: int = 10, quality: int = 90) -> bytes:
    """frames [n, h, w, 3|1] uint8 (or list of [h, w, c]) -> MJPEG AVI."""
    frames = [np.asarray(f) for f in frames]
    if not frames:
        raise ValueError("avi_encode needs at least one frame")
    h, w = frames[0].shape[:2]
    payloads = []
    for f in frames:
        if f.shape[:2] != (h, w):
            raise ValueError("all frames must share dimensions")
        img = f[:, :, 0] if (f.ndim == 3 and f.shape[2] == 1) else f
        payloads.append(jpeg_encode(img, quality=quality))
    n = len(payloads)
    max_size = max(len(p) for p in payloads)

    avih = struct.pack(
        "<IIIIIIIIII4I",
        1_000_000 // max(1, fps),  # us per frame
        max_size * fps,            # max bytes/sec (advisory)
        0,                         # padding granularity
        0x10,                      # AVIF_HASINDEX
        n, 0, 1,                   # total frames, initial, streams
        max_size, w, h,
        0, 0, 0, 0,
    )
    strh = struct.pack(
        "<4s4sIHHIIIIIIii4h",
        b"vids", b"MJPG",
        0, 0, 0, 0,                # flags, priority, language, init
        1, max(1, fps),            # scale, rate -> fps
        0, n,                      # start, length (frames)
        max_size, 10_000, 0,       # sugg buffer, quality, sample_size
        0, 0, w, h,                # rcFrame
    )
    strf = struct.pack(
        "<IiiHH4sIiiII",
        40, w, h, 1, 24, b"MJPG", w * h * 3, 0, 0, 0, 0,
    )
    hdrl = _list(b"hdrl", _chunk(b"avih", avih)
                 + _list(b"strl", _chunk(b"strh", strh) + _chunk(b"strf", strf)))

    movi_body = b"movi"
    idx_entries = []
    for p in payloads:
        # idx1 offsets are relative to the 'movi' fourcc per convention
        idx_entries.append(struct.pack("<4sIII", b"00dc", 0x10,
                                       len(movi_body), len(p)))
        movi_body += _chunk(b"00dc", p)
    movi = _chunk(b"LIST", movi_body)
    idx1 = _chunk(b"idx1", b"".join(idx_entries))

    riff_body = b"AVI " + hdrl + movi + idx1
    return b"RIFF" + struct.pack("<I", len(riff_body)) + riff_body


def _walk_chunks(buf: bytes, pos: int, end: int):
    """Yield (tag, body_start, body_size) over a RIFF chunk run."""
    while pos + 8 <= end:
        tag = buf[pos:pos + 4]
        (size,) = struct.unpack_from("<I", buf, pos + 4)
        yield tag, pos + 8, size
        pos += 8 + size + (size & 1)


def avi_info(buf: bytes) -> dict:
    """Header-only parse: {n_frames, w, h, fps, us_per_frame}."""
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"AVI ":
        raise ValueError("not an AVI (missing RIFF/AVI header)")
    for tag, start, size in _walk_chunks(buf, 12, len(buf)):
        if tag == b"LIST" and buf[start:start + 4] == b"hdrl":
            for t2, s2, z2 in _walk_chunks(buf, start + 4, start + size):
                if t2 == b"avih":
                    if s2 + 40 > len(buf):
                        raise ValueError("truncated AVI avih header")
                    us, _, _, _, n, _, _, _, w, h = struct.unpack_from(
                        "<IIIIIIIIII", buf, s2)
                    return {
                        "n_frames": int(n), "w": int(w), "h": int(h),
                        "us_per_frame": int(us),
                        "fps": int(round(1_000_000 / us)) if us else 0,
                    }
    raise ValueError("truncated AVI (no avih header)")


def avi_frame_ranges(buf: bytes) -> list[tuple[int, int]]:
    """(offset, size) of every frame chunk, one linear scan, no decode."""
    ranges = []
    for tag, start, size in _walk_chunks(buf, 12, len(buf)):
        if tag == b"LIST" and buf[start:start + 4] == b"movi":
            for t2, s2, z2 in _walk_chunks(buf, start + 4, start + size):
                if t2[2:4] in (b"dc", b"db"):
                    ranges.append((s2, z2))
    return ranges


def avi_decode_frame(buf: bytes, idx: int,
                     ranges: list[tuple[int, int]] | None = None) -> np.ndarray:
    """Decode one frame by index; pass precomputed ``ranges`` to amortize
    the container scan across many samples from the same clip."""
    if ranges is None:
        ranges = avi_frame_ranges(buf)
    off, size = ranges[idx]
    arr = jpeg_decode(buf[off:off + size])
    return arr[:, :, None] if arr.ndim == 2 else arr


def avi_decode(buf: bytes) -> list[np.ndarray]:
    ranges = avi_frame_ranges(buf)
    return [avi_decode_frame(buf, i, ranges) for i in range(len(ranges))]


class VideoStats:
    """Map stage: (media_id, bytes) -> exact container metadata.

    Header parse only — n_frames / w / h / fps / duration come from the
    avih chunk and the frame index; zero pixel decode, so this runs at
    I/O speed over a 100 TB corpus.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, nf, ws, hs, fpss, durs, total_bytes = [], [], [], [], [], [], []
        for i in range(batch.num_rows):
            buf = batch["bytes"][i].as_py()
            info = avi_info(buf)
            ranges = avi_frame_ranges(buf)
            ids.append(batch["media_id"][i].as_py())
            nf.append(info["n_frames"])
            ws.append(info["w"])
            hs.append(info["h"])
            fpss.append(info["fps"])
            durs.append(round(info["n_frames"] * info["us_per_frame"] / 1e6, 6))
            total_bytes.append(int(sum(z for _, z in ranges)))
        return pa.table(
            {
                "media_id": pa.array(ids, pa.string()),
                "n_frames": pa.array(nf, pa.int64()),
                "w": pa.array(ws, pa.int64()),
                "h": pa.array(hs, pa.int64()),
                "fps": pa.array(fpss, pa.int64()),
                "duration6": pa.array(durs, pa.float64()),
                "frame_bytes": pa.array(total_bytes, pa.int64()),
            }
        )


class SceneChanges:
    """Map stage: shot-boundary detection over MJPEG-AVI rows.

    Decodes consecutive frames through the seek index and computes the
    mean absolute pixel difference (MAD) to the previous frame; a
    frame with MAD >= ``threshold`` starts a new scene.  Output one
    row per frame: media_id, frame_idx, mad6 (0.0 for frame 0),
    is_cut (frame 0 is cut 1 by convention), scene_idx (cumulative
    cut count - 1).  Identical consecutive frames give MAD exactly 0
    (JPEG decode is deterministic), so static shots are exact.
    """

    def __init__(self, threshold: float = 8.0):
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"media_id": [], "frame_idx": [], "mad6": [],
               "is_cut": [], "scene_idx": []}
        for i in range(batch.num_rows):
            buf = batch["bytes"][i].as_py()
            mid = batch["media_id"][i].as_py()
            ranges = avi_frame_ranges(buf)
            prev = None
            scene = -1
            for f in range(len(ranges)):
                px = avi_decode_frame(buf, f, ranges).astype(np.int64)
                if prev is None:
                    mad = 0.0
                    cut = 1
                else:
                    mad = float(np.abs(px - prev).mean())
                    cut = int(mad >= self.threshold)
                prev = px
                scene += cut
                out["media_id"].append(mid)
                out["frame_idx"].append(f)
                out["mad6"].append(round(mad, 6))
                out["is_cut"].append(cut)
                out["scene_idx"].append(scene)
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int64()),
                "mad6": pa.array(out["mad6"], pa.float64()),
                "is_cut": pa.array(out["is_cut"], pa.int64()),
                "scene_idx": pa.array(out["scene_idx"], pa.int64()),
            }
        )
