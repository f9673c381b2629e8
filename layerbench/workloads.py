"""The three workloads: seeded set-up, timed pass, traced pass, output checks.

Every pass calls the library's public stage functions only.  A timed
pass streams each pipeline as the library's callers would; the traced
pass of the same workload materializes the output of every layer
before the next one starts, so each layer's span and ``ds.stats()``
operators can be read on their own.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from solaris_ray.raster import codec
from solaris_ray.sources.reader import read_images
from solaris_ray.stages import evaluate, joins, masks, polygonize, tiler
from solaris_ray.state import manifest

from layerbench import corpus
from layerbench.trace import Stopwatch, Timing, Tracer, parse_stats

TILE = 128
# the flagship's join projection: pixels never reach the join
SPEC_COLUMNS = ["tile_id", "image_id", "cell", "x0", "y0", "x1", "y1"]
PAIR_COLUMNS = ["tile_id", "feature_id"]
RESUME_COLUMNS = ["tile_id", "feature_id", "partialDec", "truncated"]
STAGES = ("reader", "tiler", "joins", "masks", "polygonize", "evaluate", "manifest")


@dataclass
class Pass:
    """One complete pass of a workload, with its timing and check results."""

    elapsed: Timing
    images: int
    rows: int  # tile rows plus join rows
    resume: Timing  # restart after a crash to a verified output
    peak_heap_mb: float
    failures: list[str] = field(default_factory=list)


def gather(ds) -> pa.Table | None:
    """Stream ``ds`` into this process block by block; its non-empty blocks.

    (``to_arrow_refs`` on a lazy dataset would execute it a second time,
    up to one row, to fetch the schema.)
    """
    blocks = [b for b in ds.iter_batches(batch_size=None, batch_format="pyarrow") if b.num_rows]
    return pa.concat_tables(blocks) if blocks else None


def pair_digest(tbl: pa.Table | None) -> tuple[str, int]:
    """Order-insensitive digest of the (tile_id, feature_id) multiset."""
    if tbl is None:
        return hashlib.sha256(b"[]").hexdigest(), 0
    pairs = sorted(zip(tbl["tile_id"].to_pylist(), tbl["feature_id"].to_pylist()))
    return hashlib.sha256(repr(pairs).encode()).hexdigest(), len(pairs)


def closed_form_tiles(meta: pa.Table) -> int:
    """sum over images of ceil(w / TILE) * ceil(h / TILE)."""
    w = meta["w"].to_numpy().astype(np.int64)
    h = meta["h"].to_numpy().astype(np.int64)
    return int(((-(-w // TILE)) * (-(-h // TILE))).sum())


def peak_heap(datasets) -> float:
    """Largest per-operator peak heap (MiB) that ``ds.stats()`` reports."""
    return max(
        (op["peak_heap_mb"] for ds in datasets for op in parse_stats(ds.stats())),
        default=0.0,
    )


def _digest_files(paths: list[str], *tables: pa.Table) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    for t in tables:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        h.update(sink.getvalue().to_pybytes())
    return h.hexdigest()


def _stage(tr: Tracer, name: str, parent, build):
    """Run one layer inside a span, materialize its output and attach the
    operators it added to the stats text (parsed after the span closes)."""
    with tr.span(name) as rec:
        ds = build().materialize()
    skip = len(parse_stats(parent.stats())) if parent is not None else 0
    rec["ops"] = parse_stats(ds.stats())[skip:]
    return ds


def null_execution_s(repeats: int = 5) -> float:
    """Median wall of a trivial read -> map -> count: the engine floor."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ray.data.range(1000).map_batches(lambda b: b, batch_format="pyarrow").count()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


class Workload:
    """Set-up hooks (``make_inputs``, ``prepare``), the passes
    (``warm_up``, ``timed_pass``, ``traced_pass``) and ``layer_extras``,
    the per-layer numbers that are not span or operator totals."""

    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.input_dir = os.path.join(work_dir, "inputs")

    def warm_up(self) -> Pass:
        return self.timed_pass()

    def layer_extras(self, tr: Tracer) -> dict:
        return {}


class TilesJoin(Workload):
    """Pixel-bound: read -> decode/tile/encode -> broadcast clip join."""

    name = "tiles_join"
    n_images = 128
    n_shards = 8

    def make_inputs(self) -> str:
        """Generate the seeded inputs; returns their digest."""
        shutil.rmtree(self.input_dir, ignore_errors=True)
        self.corpus = corpus.image_corpus(self.input_dir, self.n_images, self.n_shards, self.seed)
        return _digest_files(self.corpus.shard_paths, self.corpus.features)

    def prepare(self) -> None:
        """Expected outputs: closed-form tile count and the pixel-free
        plan_tiles_ds + spatial_join_tasks join of the same corpus."""
        self.n_tiles = closed_form_tiles(self.corpus.meta)
        specs = tiler.plan_tiles_ds(
            read_images(self.corpus.images_dir, columns=corpus.PLAN_COLUMNS), tile_size=TILE
        )
        ref = joins.spatial_join_tasks(specs, self.corpus.features, out_columns=PAIR_COLUMNS)
        self.ref_digest, self.ref_rows = pair_digest(gather(ref))

    def _join(self, tiles, index, out_columns=PAIR_COLUMNS):
        return joins.broadcast_spatial_join_tasks(
            tiles, index_ref=index, spec_columns=SPEC_COLUMNS,
            out_columns=out_columns, batch_size=None,
        )

    def _tiles(self, images):
        # intermediate tiles stay level-0 PNG, as in the flagship
        return tiler.cut_tiles(images, tile_size=TILE, batch_size=None, encode_level=0)

    def _check_pairs(self, pairs: pa.Table | None) -> list[str]:
        digest, n = pair_digest(pairs)
        if (digest, n) != (self.ref_digest, self.ref_rows):
            return [f"join pairs ({n} rows) differ from the pixel-free reference "
                    f"({self.ref_rows} rows)"]
        return []

    def _check_tiles(self, tiles) -> list[str]:
        """Tile count against the closed form; the sampled images' tiles
        against the source slice (exact for png, PSNR >= 40 dB for qnt)."""
        tbl = gather(tiles)
        n = tbl.num_rows if tbl is not None else 0
        if n != self.n_tiles:
            return [f"{n} tiles, closed form says {self.n_tiles}"]
        failures = []
        sample = self.corpus.sample
        for i in range(sample.num_rows):
            image_id = sample["image_id"][i].as_py()
            fmt = sample["fmt"][i].as_py()
            src = codec.decode(sample["bytes"][i].as_py(), fmt)
            # edge tiles are padded with nodata (0), which passes the codec too
            pad = codec.decode(codec.encode(np.zeros((1, 1) + src.shape[2:], src.dtype), fmt), fmt)
            rows = tbl.filter(pc.equal(tbl["image_id"], image_id))
            if rows.num_rows != closed_form_tiles(sample.slice(i, 1)):
                failures.append(f"{image_id}: {rows.num_rows} tiles")
                continue
            for j in range(rows.num_rows):
                c, r = rows["col"][j].as_py(), rows["row"][j].as_py()
                part = src[r * TILE:(r + 1) * TILE, c * TILE:(c + 1) * TILE]
                got = codec.decode(rows["bytes"][j].as_py(), rows["fmt"][j].as_py())
                inside = np.zeros(got.shape[:2], bool)
                inside[: part.shape[0], : part.shape[1]] = True
                body = got[: part.shape[0], : part.shape[1]]
                ok = (got.shape[:2] == (TILE, TILE)
                      and (np.array_equal(body, part) if fmt == "png"
                           else codec.psnr(body, part) >= 40.0)
                      and bool(np.all(got[~inside] == pad[0, 0])))
                if not ok:
                    failures.append(f"tile {rows['tile_id'][j].as_py()} differs from its source slice")
        return failures

    def warm_up(self) -> Pass:
        """Discarded from timing; materializes the tiles so their count and
        pixels can be checked, then joins them."""
        sw = Stopwatch()
        index = ray.put(joins.build_join_index(self.corpus.features))
        tiles = self._tiles(read_images(self.corpus.images_dir)).materialize()
        joined = self._join(tiles, index)
        pairs = gather(joined)
        wall = sw.read()
        failures = self._check_tiles(tiles) + self._check_pairs(pairs)
        return Pass(wall, self.n_images, self.n_tiles + self.ref_rows, wall,
                    peak_heap([joined]), failures)

    def timed_pass(self) -> Pass:
        """read -> cut_tiles -> broadcast_spatial_join_tasks, one streaming
        execution.  A crash means a full re-run, so resume = elapsed."""
        sw = Stopwatch()
        index = ray.put(joins.build_join_index(self.corpus.features))
        joined = self._join(self._tiles(read_images(self.corpus.images_dir)), index)
        pairs = gather(joined)
        wall = sw.read()
        return Pass(wall, self.n_images, self.n_tiles + (pairs.num_rows if pairs else 0),
                    wall, peak_heap([joined]), self._check_pairs(pairs))

    def traced_pass(self, tr: Tracer) -> Pass:
        with tr.span("pass"):
            sw = Stopwatch()
            images = _stage(tr, "reader", None, lambda: read_images(self.corpus.images_dir))
            tiles = _stage(tr, "tiler", images, lambda: self._tiles(images))

            def _join():
                index = ray.put(joins.build_join_index(self.corpus.features))
                return self._join(tiles, index)

            joined = _stage(tr, "joins", tiles, _join)
            pairs = gather(joined)
            wall = sw.read()
        return Pass(wall, self.n_images, self.n_tiles + (pairs.num_rows if pairs else 0),
                    wall, peak_heap([joined]), self._check_pairs(pairs))


class TilesJoinResume(TilesJoin):
    """The tiles_join pipeline through run_partitioned: one execution,
    parquet write and checksum per shard; then a simulated crash that
    loses the last half of the manifest, a resume and a verify."""

    name = "tiles_join_resume"

    def _pass(self, make_dataset, manifest_span) -> tuple[Pass, dict]:
        pids = list(range(self.n_shards))
        half = pids[len(pids) // 2:]
        out = os.path.join(self.work_dir, "resume")
        shutil.rmtree(out, ignore_errors=True)

        def lineage(pid):
            return {"shard": os.path.basename(self.corpus.shard_paths[pid]), "seed": self.seed}

        sw = Stopwatch()
        index = ray.put(joins.build_join_index(self.corpus.features))
        written = {}

        def make(pid):
            written[pid] = make_dataset(pid, index)
            return written[pid]

        with manifest_span():
            full = manifest.run_partitioned(out, pids, make, lineage)
        full_time = sw.read()
        for pid in half:  # the crash: these partitions never journalled
            os.remove(os.path.join(out, manifest.MANIFEST_DIR, f"part-{pid}.json"))
        sw = Stopwatch()
        with manifest_span():
            resumed = manifest.run_partitioned(out, pids, make, lineage)
        with manifest_span():
            verified = manifest.verify_partitions(out)
        resume = sw.read()
        done = manifest.PartitionManifest(out).done().values()
        self.journal = {
            "manifest.skip_ratio": len(resumed["skipped"]) / len(pids),
            # what the journal says landed on disk (a Write operator's own
            # stats count its small result blocks, not the rows it wrote)
            "manifest.rows_out": sum(e["metrics"]["rows"] for e in done),
            "manifest.bytes_out": sum(e["metrics"]["bytes"] for e in done),
        }
        rows = sum(m["rows"] for m in full["metrics"].values())
        failures = self._check_resume(out, pids, half, full, resumed, verified)
        return Pass(full_time, self.n_images, self.n_tiles + rows, resume,
                    peak_heap(written.values()), failures), written

    def _check_resume(self, out, pids, half, full, resumed, verified) -> list[str]:
        failures = []
        if resumed["processed"] != half or resumed["skipped"] != pids[: len(pids) - len(half)]:
            failures.append(f"resume processed {resumed['processed']}, skipped {resumed['skipped']}")
        for pid in half:
            if resumed["metrics"].get(pid, {}).get("checksum") != full["metrics"][pid]["checksum"]:
                failures.append(f"partition {pid}: resumed checksum differs from the full pass")
        if verified != {pid: True for pid in pids}:
            failures.append(f"verify_partitions: {verified}")
        rows = self.journal["manifest.rows_out"]
        if rows != self.ref_rows:
            failures.append(f"{rows} rows written, tiles_join joins {self.ref_rows}")
        parts = [pq.read_table(os.path.join(out, f"part={pid}"), columns=PAIR_COLUMNS) for pid in pids]
        return failures + self._check_pairs(pa.concat_tables(parts))

    warm_up = Workload.warm_up  # a checked pass; tiles are checked by tiles_join

    def timed_pass(self) -> Pass:
        def make(pid, index):
            images = read_images(self.corpus.shard_paths[pid])
            return self._join(self._tiles(images), index, RESUME_COLUMNS)

        return self._pass(make, nullcontext)[0]

    def traced_pass(self, tr: Tracer) -> Pass:
        marks = {}

        def make(pid, index):
            images = _stage(tr, "reader", None, lambda: read_images(self.corpus.shard_paths[pid]))
            tiles = _stage(tr, "tiler", images, lambda: self._tiles(images))
            joined = _stage(tr, "joins", tiles,
                            lambda: self._join(tiles, index, RESUME_COLUMNS))
            marks[id(joined)] = len(parse_stats(joined.stats()))
            return joined

        with tr.span("pass"):
            result, written = self._pass(make, lambda: tr.span("manifest"))
        # the write each partition ran is appended to its dataset's stats
        first = next(s for s in tr.spans if s["name"] == "manifest")
        for ds in written.values():
            first["ops"] += parse_stats(ds.stats())[marks[id(ds)]:]
        return result

    def layer_extras(self, tr: Tracer) -> dict:
        """manifest.skip_ratio (partitions skipped on resume / planned) and
        the rows and bytes the journal records for the last pass."""
        return self.journal


class MasksEval(Workload):
    """Label-only: plan -> join -> masks -> polygons, and proposal scoring."""

    name = "masks_eval"
    n_images = 64
    # the warm-up pass shuffles into 4 buckets: it imports and starts the
    # same code without paying the default 64-bucket floor (most of a
    # pass at one CPU) a second time in set-up
    warm_up_buckets = 4

    def make_inputs(self) -> str:
        shutil.rmtree(self.input_dir, ignore_errors=True)
        self.layer = corpus.label_layer(self.input_dir, self.n_images, self.seed)
        lay = self.layer
        return _digest_files([], lay.meta, lay.features, lay.proposals)

    def prepare(self) -> None:
        """Expected outputs from direct, in-process kernel calls: the set
        of joined tiles (one mask row each) and the TP/FP/FN totals of a
        greedy_match_group recount per image."""
        lay = self.layer
        self.n_tiles = closed_form_tiles(lay.meta)
        specs = tiler.plan_tiles(lay.meta, TILE)
        pack, buckets, res = joins.build_join_index(lay.features)
        ref = joins.join_tile_batch_to_pack(specs, pack, buckets, res, 0.0)
        self.join_rows = ref.num_rows
        self.tile_ids = set(ref["tile_id"].to_pylist())
        self.totals = _greedy_totals(lay.proposals, lay.ground_truth)

    def _specs(self):
        return tiler.plan_tiles_ds(
            read_images(self.layer.meta_dir, columns=corpus.PLAN_COLUMNS), tile_size=TILE
        )

    def _scores(self):
        lay = self.layer
        return evaluate.eval_scores(ray.data.from_arrow(lay.proposals),
                                    ray.data.from_arrow(lay.ground_truth))

    def _finish(self, wall: Timing, mk, polys_ds, scores_ds, polys, scores) -> Pass:
        self._last_masks = mk
        mask_tbl = gather(mk)
        failures = []
        got = set(mask_tbl["tile_id"].to_pylist()) if mask_tbl is not None else set()
        n_masks = mask_tbl.num_rows if mask_tbl is not None else 0
        if n_masks != len(self.tile_ids) or got != self.tile_ids:
            failures.append(f"{n_masks} mask rows, {len(self.tile_ids)} joined tiles expected")
        area = pc.sum(polys["area_px"]).as_py() if polys is not None else 0
        fp_px = pc.sum(mask_tbl["footprint_px"]).as_py() if mask_tbl is not None else 0
        if area != fp_px:
            failures.append(f"polygon area {area} != footprint pixels {fp_px}")
        totals = tuple(pc.sum(scores[c]).as_py() for c in ("tp", "fp", "fn"))
        if totals != self.totals:
            failures.append(f"eval TP/FP/FN {totals}, greedy_match_group recount {self.totals}")
        return Pass(wall, self.n_images, self.n_tiles + self.join_rows, wall,
                    peak_heap([mk, polys_ds, scores_ds]), failures)

    def warm_up(self) -> Pass:
        return self.timed_pass(n_buckets=self.warm_up_buckets)

    def timed_pass(self, **mask_kwargs) -> Pass:
        """Masks are materialized because two consumers read them: the
        polygonizer and the output check."""
        sw = Stopwatch()
        joined = joins.spatial_join_tasks(self._specs(), self.layer.features)
        mk = masks.masks_from_join(joined, tile_size=TILE, **mask_kwargs).materialize()
        polys = polygonize.masks_to_polygons(mk)
        poly_tbl = gather(polys)
        scores = self._scores()
        score_tbl = gather(scores)
        wall = sw.read()
        return self._finish(wall, mk, polys, scores, poly_tbl, score_tbl)

    def traced_pass(self, tr: Tracer) -> Pass:
        with tr.span("pass"):
            sw = Stopwatch()
            meta = _stage(tr, "reader", None, lambda: read_images(
                self.layer.meta_dir, columns=corpus.PLAN_COLUMNS))
            specs = _stage(tr, "tiler", meta, lambda: tiler.plan_tiles_ds(meta, tile_size=TILE))
            joined = _stage(tr, "joins", specs,
                            lambda: joins.spatial_join_tasks(specs, self.layer.features))
            mk = _stage(tr, "masks", joined, lambda: masks.masks_from_join(joined, tile_size=TILE))
            polys = _stage(tr, "polygonize", mk, lambda: polygonize.masks_to_polygons(mk))
            scores = _stage(tr, "evaluate", None, self._scores)
            poly_tbl, score_tbl = gather(polys), gather(scores)
            wall = sw.read()
        return self._finish(wall, mk, polys, scores, poly_tbl, score_tbl)

    def layer_extras(self, tr: Tracer) -> dict:
        """masks.nonempty_task_ratio: map_groups output blocks (one per
        task) holding rows, over the tasks the map_groups operator ran."""
        span = next(s for s in tr.spans if s["name"] == "masks")
        tasks = span["ops"][-1]["tasks"] if span["ops"] else 0
        blocks = ray.get(self._last_masks.to_arrow_refs())  # materialized: no re-run
        nonempty = sum(1 for b in blocks if b.num_rows)
        return {"masks.nonempty_task_ratio": nonempty / tasks if tasks else 0.0}


def _greedy_totals(props: pa.Table, gt: pa.Table) -> tuple[int, int, int]:
    """Driver-side TP/FP/FN over all images with greedy_match_group."""
    tp = 0
    for image_id in set(props["image_id"].to_pylist()):
        p = props.filter(pc.equal(props["image_id"], image_id))
        g = gt.filter(pc.equal(gt["image_id"], image_id))
        if g.num_rows == 0:
            continue
        _, _, is_tp = evaluate.greedy_match_group(
            p["proposal_id"].to_numpy(), p["conf"].to_numpy(), corpus.rings(p),
            g["feature_id"].to_numpy(), corpus.rings(g),
        )
        tp += int(is_tp.sum())
    return tp, props.num_rows - tp, gt.num_rows - tp


WORKLOADS = {w.name: w for w in (TilesJoin, MasksEval, TilesJoinResume)}
