"""Multimodal columns — image/audio/video as opaque binary + metadata.

Driver mandate: treat multimodal payloads as ``binary`` columns with
typed metadata and implement decode / resize / feature-extract /
frame-sample as ``map_batches`` stages.  The container has
no image/audio libraries, so:

- formats this repo's own codec handles (``png``, ``qnt``, ``jpeg`` —
  a real pure-Python baseline JPEG codec lives in
  solaris_ray.raster.jpeg) decode for real (solaris_ray.raster.codec);
- WAV audio decodes for real too (solaris_ray.stages.audio — RIFF
  with PCM16/PCM8/float32, G.711 mu-law/A-law and IMA ADPCM), and so
  does FLAC (solaris_ray.stages.flac — a pure-numpy lossless decoder
  covering fixed + LPC predictors, all rice modes and all stereo
  decorrelation modes);
- MJPEG-AVI video decodes for real (solaris_ray.stages.video — RIFF
  container + per-frame JPEG through raster/jpeg.py), with sampled
  frames seeked by index so unsampled frames never decode;
- ``webp`` decodes/encodes for real through the system libwebp shared
  library (solaris_ray.raster.webp, ctypes — no wheel needed); where
  that library is absent it falls back to the stub path;
- ``tiff`` decodes for real through the general baseline-TIFF reader
  (raster/gtiff.py: both byte orders, Deflate/LZW/PackBits strips,
  predictor 2);
- remaining foreign formats (perceptual audio — mp3/ogg/aac — and
  inter-frame video codecs) go
  through a clearly marked STUB: ``strict=True`` raises NotImplementedError,
  ``strict=False`` produces a deterministic fake decode (seeded from
  the payload digest) so the Ray-side plumbing — schema, batch sizing,
  stage signature, output layout — is real and testable end-to-end.

All stages are callable classes whose ``__init__`` holds the codec
settings or model weights; a stateless one is passed to ``map_batches``
as an instance, one with weights goes through ``runtime.stateful_map``,
which builds it once per worker process (the reference loads models
once per process the same way, /root/reference/solaris/nets/model_io.py:12-40).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..raster import codec

NATIVE_FMTS = {"png", "qnt", "jpeg", "jpg", "tiff", "tif", "gtif", "gif"}
STUB_FMTS: set = set()

# webp self-upgrades through the system libwebp (raster/webp.py) — on
# boxes without the shared library it stays a documented stub.
from ..raster.webp import available as _webp_available  # noqa: E402

if _webp_available():
    NATIVE_FMTS.add("webp")
else:  # pragma: no cover - environment-dependent
    STUB_FMTS.add("webp")

# Real-codec seam: if a PIL / imagecodecs wheel ever appears in the
# environment, foreign-format decode self-upgrades — ``strict=True``
# then means "real decode or raise", never the fake.  In this container
# both imports fail, so the stub path below carries the plumbing tests.
try:  # pragma: no cover - environment-dependent
    from PIL import Image as _PILImage  # type: ignore
except ImportError:
    _PILImage = None


def _pil_decode(buf: bytes) -> np.ndarray:  # pragma: no cover - needs PIL
    import io

    img = _PILImage.open(io.BytesIO(buf))
    arr = np.asarray(img)
    return arr[:, :, None] if arr.ndim == 2 else arr


def _fake_decode(buf: bytes, w: int, h: int, channels: int = 3) -> np.ndarray:
    """Deterministic fake pixels seeded by the payload digest (STUB)."""
    seed = int.from_bytes(hashlib.md5(buf).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)


def decode_any(buf: bytes, fmt: str, w: int, h: int, strict: bool = False) -> np.ndarray:
    if fmt in NATIVE_FMTS:
        arr = codec.decode(buf, fmt)
        return arr[:, :, None] if arr.ndim == 2 else arr
    if fmt in STUB_FMTS:
        if _PILImage is not None:  # pragma: no cover - needs PIL
            return _pil_decode(buf)
        if strict:
            raise NotImplementedError(
                f"no {fmt} codec in this environment; decode stubbed (see module docstring)"
            )
        return _fake_decode(buf, w, h)
    raise ValueError(f"unknown image fmt {fmt!r}")


class ImageResizer:
    """Map stage: decode -> nearest-neighbor resize -> encode.

    Nearest-neighbor keeps the kernel dependency-free; output rows
    carry the new dims so downstream stages never re-sniff bytes.
    """

    def __init__(self, out_w: int, out_h: int, out_fmt: str = "png", strict: bool = False):
        self.out_w, self.out_h = out_w, out_h
        self.out_fmt = out_fmt
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        out_bytes = []
        for buf, fmt, w, h in zip(bufs, fmts, ws, hs):
            img = decode_any(buf, fmt, int(w), int(h), self.strict)
            yi = (np.arange(self.out_h) * img.shape[0] // self.out_h)
            xi = (np.arange(self.out_w) * img.shape[1] // self.out_w)
            small = img[yi][:, xi]
            out_bytes.append(codec.encode(small.squeeze(-1) if small.shape[2] == 1 else small, self.out_fmt))
        cols = {name: batch[name] for name in batch.column_names if name not in ("bytes", "w", "h", "fmt")}
        n = batch.num_rows
        cols["bytes"] = pa.array(out_bytes, pa.binary())
        cols["w"] = pa.array(np.full(n, self.out_w, dtype=np.int32))
        cols["h"] = pa.array(np.full(n, self.out_h, dtype=np.int32))
        cols["fmt"] = pa.array([self.out_fmt] * n, pa.string())
        return pa.table(cols)


class ImageStats:
    """Map stage: per-band min/max/mean/std (+ phash check cols).

    The preproc ``ImageStats`` analogue
    (/root/reference/solaris/preproc/image.py:230-270) as a per-row map;
    global roll-ups compose with ``Dataset.aggregate`` downstream.
    """

    def __init__(self, strict: bool = False):
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        mins, maxs, means, stds = [], [], [], []
        for buf, fmt, w, h in zip(bufs, fmts, ws, hs):
            img = decode_any(buf, fmt, int(w), int(h), self.strict).astype(np.float64)
            mins.append(float(img.min()))
            maxs.append(float(img.max()))
            means.append(float(img.mean()))
            stds.append(float(img.std()))
        return pa.table(
            {
                "image_id": batch["image_id"],
                "px_min": pa.array(mins),
                "px_max": pa.array(maxs),
                "px_mean": pa.array(means),
                "px_std": pa.array(stds),
            }
        )


class FrameSampler:
    """Map stage for video rows: sample every k-th frame.

    Expects ``(media_id, bytes, fmt, n_frames, w, h)``; emits one row
    per sampled frame.  ``fmt`` in {"avi", "mjpeg"} decodes for REAL
    (stages/video.py MJPEG-AVI container + the in-repo JPEG codec) and
    — scale-critical — decodes ONLY the sampled frames, seeking by the
    container's frame index rather than decoding the whole clip.
    Foreign codecs (h264/vp9/...) keep the documented stub path:
    ``strict=True`` raises, else a deterministic fake frame so the
    fan-out plumbing stays testable.
    """

    REAL_FMTS = ("avi", "mjpeg")

    def __init__(self, every_k: int = 10, out_fmt: str = "png", strict: bool = False):
        self.every_k = every_k
        self.out_fmt = out_fmt
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import video as _video

        out = {"media_id": [], "frame_idx": [], "bytes": [], "w": [], "h": [], "fmt": []}
        has_fmt = "fmt" in batch.column_names
        for i in range(batch.num_rows):
            buf = batch["bytes"][i].as_py()
            mid = batch["media_id"][i].as_py()
            fmt = batch["fmt"][i].as_py() if has_fmt else "avi"
            if fmt in self.REAL_FMTS:
                info = _video.avi_info(buf)
                ranges = _video.avi_frame_ranges(buf)
                w, h = info["w"], info["h"]
                for fi in range(0, info["n_frames"], self.every_k):
                    frame = _video.avi_decode_frame(buf, fi, ranges)
                    out["media_id"].append(mid)
                    out["frame_idx"].append(fi)
                    out["bytes"].append(codec.encode(
                        frame.squeeze(-1) if frame.shape[2] == 1 else frame,
                        self.out_fmt))
                    out["w"].append(w)
                    out["h"].append(h)
                    out["fmt"].append(self.out_fmt)
                continue
            if self.strict:
                raise NotImplementedError(
                    f"no {fmt} video codec in this environment (stub)")
            n_frames = int(batch["n_frames"][i].as_py())
            w = int(batch["w"][i].as_py())
            h = int(batch["h"][i].as_py())
            for fi in range(0, n_frames, self.every_k):
                frame = _fake_decode(buf + fi.to_bytes(4, "little"), w, h)
                out["media_id"].append(mid)
                out["frame_idx"].append(fi)
                out["bytes"].append(codec.encode(frame, self.out_fmt))
                out["w"].append(w)
                out["h"].append(h)
                out["fmt"].append(self.out_fmt)
        return pa.table(
            {
                "media_id": pa.array(out["media_id"], pa.string()),
                "frame_idx": pa.array(out["frame_idx"], pa.int32()),
                "bytes": pa.array(out["bytes"], pa.binary()),
                "w": pa.array(out["w"], pa.int32()),
                "h": pa.array(out["h"], pa.int32()),
                "fmt": pa.array(out["fmt"], pa.string()),
            }
        )


class EmbeddingExtractor:
    """Image scorer: image bytes -> feature vector.

    The model-scorer stage (model loaded once per worker process,
    /root/reference/solaris/nets/model_io.py + infer.py:80-102).  The
    "model" is a fixed random projection of downsampled pixels whose
    matrix now arrives through the full weights-file lifecycle
    (``stages/model.get_weights``: registry -> cache-dir .npz ->
    fetch-on-miss), loaded once per instance here in ``__init__`` —
    deterministic, batchable, and shaped exactly like a real encoder:
    swap ``self.proj @ x`` for a forward pass and nothing else changes.
    """

    def __init__(self, dim: int = 64, seed: int = 42, strict: bool = False, pool: int = 16,
                 dtype=np.float32, weights_dir: str | None = None):
        from .model import _fetch_rproj, get_weights

        self.pool = pool  # downsample to pool x pool x 3
        self.dtype = np.dtype(dtype)
        w = get_weights(
            f"rproj_d{dim}_s{seed}_p{pool}",
            custom_model_dict={
                "weight_path": f"rproj_d{dim}_s{seed}_p{pool}.npz",
                "fetch": lambda: _fetch_rproj(dim, seed, pool),
                "arch": "linear",
            },
            weights_dir=weights_dir,
        )
        self.proj = w["proj"].astype(self.dtype)
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        bufs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        feats = np.empty((batch.num_rows, self.pool * self.pool * 3), dtype=self.dtype)
        for i, (buf, fmt, w, h) in enumerate(zip(bufs, fmts, ws, hs)):
            img = decode_any(buf, fmt, int(w), int(h), self.strict)
            if img.shape[2] == 1:
                img = np.repeat(img, 3, axis=2)
            yi = (np.arange(self.pool) * img.shape[0] // self.pool)
            xi = (np.arange(self.pool) * img.shape[1] // self.pool)
            feats[i] = img[yi][:, xi, :3].astype(self.dtype).ravel() / 255.0
        emb = feats @ self.proj.T  # one matmul per batch — the batched-inference shape
        arrow_t = pa.float64() if self.dtype == np.float64 else pa.float32()
        return pa.table(
            {
                "image_id": batch["image_id"],
                "embedding": pa.array(emb.tolist(), pa.list_(arrow_t)),
            }
        )


def extract_embeddings(images, dim: int = 64, batch_size: int = 32,
                       pool: int = 16, dtype=np.float32):
    from ..runtime import stateful_map

    return stateful_map(
        images, EmbeddingExtractor, {"dim": dim, "pool": pool, "dtype": dtype},
        batch_size=batch_size,
    )


class Patchify:
    """Map stage: ViT-style patch extraction.

    Decodes each image once and emits one row per PxP patch (row-major
    patch grid), the layout step before patch-embedding a vision
    transformer.  ``summary_only=True`` emits (image_id, patch_idx,
    px_sum) — integer-exact, the SQL-oracle surface; otherwise rows
    carry the raw patch bytes for a downstream embedding stage.
    Images whose sides are not multiples of P are cropped to the
    largest aligned region (documented; matches the ViT convention of
    resize-to-multiple upstream).
    """

    def __init__(self, patch: int = 16, summary_only: bool = True,
                 strict: bool = False):
        self.patch = patch
        self.summary_only = summary_only
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..raster import codec as _codec

        P = self.patch
        ids, idxs, sums, blobs = [], [], [], []
        for i in range(batch.num_rows):
            img = _codec.decode(batch["bytes"][i].as_py(),
                                batch["fmt"][i].as_py())
            if img.ndim == 3:
                img = img[..., 0]
            h, w = (img.shape[0] // P) * P, (img.shape[1] // P) * P
            img = img[:h, :w]
            ny, nx = h // P, w // P
            patches = img.reshape(ny, P, nx, P).transpose(0, 2, 1, 3)
            iid = batch["image_id"][i].as_py()
            for pi in range(ny * nx):
                ids.append(iid)
                idxs.append(pi)
                if self.summary_only:
                    sums.append(int(patches[pi // nx, pi % nx].astype(np.int64).sum()))
                else:
                    blobs.append(np.ascontiguousarray(
                        patches[pi // nx, pi % nx]).tobytes())
        cols = {
            "image_id": pa.array(ids, pa.string()),
            "patch_idx": pa.array(np.asarray(idxs, np.int64), pa.int64()),
        }
        if self.summary_only:
            cols["px_sum"] = pa.array(np.asarray(sums, np.int64), pa.int64())
        else:
            cols["patch"] = pa.array(blobs, pa.binary())
        return pa.table(cols)


class ImageQuality:
    """Map stage: per-image sharpness metrics for corpus
    filtering (the LAION-style blur gate).

    - ``lap_var6``: variance of the 4-neighbor Laplacian over interior
      pixels — the standard blur detector (low = blurry).
    - ``grad6``: mean squared central-difference gradient energy
      (Tenengrad-lite).

    Both are computed from exact integer sums (one float division +
    subtraction at the end), so a SQL oracle replays them bit-for-bit
    on formula images.  Multi-channel inputs reduce to integer ITU
    luma first.
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..raster.codec import decode

        ids, lap6, grad6 = [], [], []
        for i in range(batch.num_rows):
            px = decode(batch["bytes"][i].as_py(),
                        batch["fmt"][i].as_py())
            v = px.astype(np.int64)
            if v.ndim == 3:
                if v.shape[2] >= 3:
                    v = (299 * v[:, :, 0] + 587 * v[:, :, 1]
                         + 114 * v[:, :, 2]) // 1000
                else:
                    v = v[:, :, 0]
            if v.shape[0] < 3 or v.shape[1] < 3:
                continue
            lap = (4 * v[1:-1, 1:-1] - v[:-2, 1:-1] - v[2:, 1:-1]
                   - v[1:-1, :-2] - v[1:-1, 2:])
            n = lap.size
            s = int(lap.sum())
            ss = int((lap * lap).sum())
            gx = v[1:-1, 2:] - v[1:-1, :-2]
            gy = v[2:, 1:-1] - v[:-2, 1:-1]
            ge = int((gx * gx + gy * gy).sum())
            ids.append(batch["image_id"][i].as_py())
            lap6.append(round(ss / n - (s / n) * (s / n), 6))
            grad6.append(round(ge / n, 6))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "lap_var6": pa.array(lap6, pa.float64()),
                "grad6": pa.array(grad6, pa.float64()),
            }
        )


class OverviewBuilder:
    """Map stage: 2x average-pooled overview levels (the COG /
    GeoTIFF overview pyramid; GDAL's ``BuildOverviews('AVERAGE')``).

    Each level halves both dims with an exact integer block mean
    (sum of the 2x2 block // 4 — floor semantics a SQL twin restates
    verbatim); odd edges truncate to the aligned region (the GDAL
    convention for exact halving pipelines).  Emits one row per
    requested level per image: (image_id, level, bytes, w, h, fmt).
    """

    def __init__(self, levels: int = 2, out_fmt: str = "png", strict: bool = False):
        self.levels = levels
        self.out_fmt = out_fmt
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"image_id": [], "level": [], "bytes": [], "w": [], "h": [],
               "fmt": []}
        for i in range(batch.num_rows):
            img = decode_any(batch["bytes"][i].as_py(),
                             batch["fmt"][i].as_py(), 0, 0, self.strict)
            if img.ndim == 2:
                img = img[:, :, None]
            cur = img.astype(np.int64)
            iid = batch["image_id"][i].as_py()
            for lv in range(1, self.levels + 1):
                h2, w2 = cur.shape[0] // 2, cur.shape[1] // 2
                if h2 == 0 or w2 == 0:
                    break
                cur = (cur[: h2 * 2, : w2 * 2]
                       .reshape(h2, 2, w2, 2, cur.shape[2])
                       .sum(axis=(1, 3)) // 4)
                px = cur.astype(np.uint8)
                out["image_id"].append(iid)
                out["level"].append(lv)
                out["bytes"].append(codec.encode(
                    px.squeeze(-1) if px.shape[2] == 1 else px, self.out_fmt))
                out["w"].append(w2)
                out["h"].append(h2)
                out["fmt"].append(self.out_fmt)
        return pa.table({
            "image_id": pa.array(out["image_id"], pa.string()),
            "level": pa.array(out["level"], pa.int32()),
            "bytes": pa.array(out["bytes"], pa.binary()),
            "w": pa.array(out["w"], pa.int32()),
            "h": pa.array(out["h"], pa.int32()),
            "fmt": pa.array(out["fmt"], pa.string()),
        })


def build_overviews(images, levels: int = 2, batch_size: int = 16, out_fmt: str = "png"):
    return images.map_batches(OverviewBuilder(levels, out_fmt), batch_format="pyarrow",
                              batch_size=batch_size)
