"""Model-weights lifecycle + numpy forward-pass encoders.

Re-expresses the reference's zoo loader
(/root/reference/solaris/nets/model_io.py:12-137): ``get_model``
resolves a name through a model registry, tries the weights file at
its configured path, falls back to the shared weights cache dir, and
on a miss invokes the registered fetcher (the ``_download_weights``
analogue — the sandbox has no network, so fetchers synthesize their
deterministic payload and write it through the same
fetch -> cache-file -> load path a remote download would take; the
write is atomic so concurrent workers on one node race safely).

Models are plain ``.npz`` arrays and the forward pass is numpy — no
torch/keras in this environment, and none needed: a linear projection
or a small MLP is one/two matmuls per batch, which is exactly the
batched-inference shape of the reference's ``infer.py:80-102``.
Scorer classes load weights in ``__init__`` and run ``__call__`` per
batch; ``runtime.stateful_map`` builds one instance per worker process,
so the weights load once per worker.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pyarrow as pa

WEIGHTS_DIR = os.environ.get(
    "SOLARIS_RAY_WEIGHTS_DIR", "/tmp/solaris_ray_weights")


def _fetch_rproj(dim: int, seed: int, pool: int):
    """Deterministic random-projection weights (the EmbeddingExtractor
    stand-in matrix, now a cached artifact instead of per-instance RNG).
    Stored at full float64 — consumers downcast at load so every
    working dtype sees exactly the values the seeded RNG produced."""
    rng = np.random.default_rng(seed)
    return {"proj": rng.standard_normal((dim, pool * pool * 3))}


def _fetch_int_mlp():
    """Deterministic integer MLP (16 -> 8 relu -> 1).  Small-integer
    formula weights keep the whole forward pass exact in int64, so a
    SQL twin can restate it verbatim."""
    j = np.arange(16)[:, None]
    k = np.arange(8)[None, :]
    w1 = ((j * 5 + k * 3) % 7 - 3).astype(np.int64)
    b1 = (np.arange(8) % 5 - 2).astype(np.int64)
    w2 = ((np.arange(8) * 11) % 5 - 2).astype(np.int64)
    b2 = np.int64(7)
    return {"w1": w1, "b1": b1, "w2": w2, "b2": b2}


def model_registry() -> dict:
    """name -> model dict (``zoo.model_dict`` analogue): weight file
    name + fetcher.  ``arch`` selects the forward-pass class."""
    return {
        "rproj64": {
            "weight_path": "rproj_d64_s42_p16.npz",
            "fetch": lambda: _fetch_rproj(64, 42, 16),
            "arch": "linear",
        },
        "int_mlp_16x8": {
            "weight_path": "int_mlp_16x8.npz",
            "fetch": _fetch_int_mlp,
            "arch": "int_mlp",
        },
    }


def get_weights(model_name: str, model_path: str | None = None,
                custom_model_dict: dict | None = None,
                weights_dir: str | None = None) -> dict[str, np.ndarray]:
    """Resolve + load a model's weights (model_io.get_model:12-52
    semantics): explicit path first, then the cache dir, then the
    registered fetcher writes the file and the load retries."""
    md = custom_model_dict or model_registry().get(model_name)
    if md is None:
        raise ValueError(
            f"{model_name} is not in the model registry and no "
            "custom_model_dict was provided")
    wdir = weights_dir or WEIGHTS_DIR
    path = model_path or os.path.join(wdir, md["weight_path"])
    try:
        with np.load(path) as z:
            return {k: z[k] for k in z.files}
    except (OSError, FileNotFoundError):
        pass
    # fallback: shared cache dir (model_io._load_model_weights default_path)
    default_path = os.path.join(wdir, os.path.basename(path))
    try:
        with np.load(default_path) as z:
            return {k: z[k] for k in z.files}
    except (OSError, FileNotFoundError):
        pass
    fetch = md.get("fetch")
    if fetch is None:
        raise FileNotFoundError(f"{path} doesn't exist.")
    os.makedirs(wdir, exist_ok=True)
    payload = fetch()
    # atomic publish: concurrent workers may fetch at once; last writer
    # wins with identical bytes, readers never see a partial file
    fd, tmp = tempfile.mkstemp(dir=wdir, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **payload)
        os.replace(tmp, default_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    with np.load(default_path) as z:
        return {k: z[k] for k in z.files}


class IntMLPScorer:
    """Image scorer: decode -> 4x4 block-sum features -> integer MLP
    forward pass.  Weights resolve through ``get_weights`` once per
    instance; every step is int64-exact so the gate's SQL twin
    reproduces scores bit-for-bit."""

    def __init__(self, model_name: str = "int_mlp_16x8",
                 weights_dir: str | None = None, strict: bool = False):
        w = get_weights(model_name, weights_dir=weights_dir)
        self.w1 = w["w1"].astype(np.int64)
        self.b1 = w["b1"].astype(np.int64)
        self.w2 = w["w2"].astype(np.int64)
        self.b2 = int(w["b2"])
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .multimodal import decode_any

        bufs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        n = batch.num_rows
        feats = np.empty((n, 16), np.int64)
        for i, (buf, fmt) in enumerate(zip(bufs, fmts)):
            img = decode_any(buf, fmt, 0, 0, self.strict)
            if img.ndim == 3:
                img = img[:, :, 0]
            bh, bw = img.shape[0] // 4, img.shape[1] // 4
            # 4x4 block sums, vectorized
            blocks = img[: bh * 4, : bw * 4].astype(np.int64)
            feats[i] = blocks.reshape(4, bh, 4, bw).sum(axis=(1, 3)).ravel()
        h = np.maximum(feats @ self.w1 + self.b1, 0)
        score = h @ self.w2 + self.b2
        return pa.table({
            "image_id": batch["image_id"],
            "score": pa.array(score, pa.int64()),
        })


def score_images(images, model_name: str = "int_mlp_16x8", batch_size: int = 32,
                 weights_dir: str | None = None):
    """Distributed model scoring: weights load once per worker process."""
    from ..runtime import stateful_map

    return stateful_map(
        images, IntMLPScorer,
        {"model_name": model_name, "weights_dir": weights_dir},
        batch_size=batch_size,
    )
