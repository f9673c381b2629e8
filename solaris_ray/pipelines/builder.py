"""Config-driven pipeline builder — the YAML extension surface.

Reference (/root/reference/solaris, SURVEY.md §2.11): a YAML config
validated by ``utils/config.py`` drives train/infer pipelines, with
augmentation subdicts instantiated by NAME via ``process_aug_dict``
and models resolved from a registry dict (nets/zoo/__init__.py:12-53).

Here the same shape drives a Ray Data plan: a ``source`` plus an
ordered list of ``steps``, each a registry name + kwargs.  The
registry maps names to functions ``(ds, ctx, **kwargs) -> ds`` so user
extensions register the same way (``register_step``).

Example config (YAML or dict):

    source: {kind: synth, n_images: 16}
    steps:
      - op: tile_cut
        tile_size: 128
      - op: clip_join
        features: {kind: synth}
      - op: masks
      - op: drop_columns
        columns: [footprint, boundary, contact, road]
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pyarrow as pa

STEP_REGISTRY: dict[str, Callable] = {}


def register_step(name: str):
    def _wrap(fn):
        STEP_REGISTRY[name] = fn
        return fn

    return _wrap


class BuildContext:
    """Carries config-level state between steps (seed, corpus params)."""

    def __init__(self, config: dict):
        self.config = config
        src = config.get("source", {})
        self.seed = int(src.get("seed", 42))
        self.n_images = int(src.get("n_images", 16))
        self.size = int(src.get("size", 256))


def _load_source(spec: dict, ctx: BuildContext):
    import ray

    kind = spec.get("kind", "synth")
    if kind == "synth":
        from ..sources import synth

        images, _ = synth.gen_shard(
            np.arange(int(spec.get("n_images", ctx.n_images))),
            int(spec.get("n_images", ctx.n_images)),
            int(spec.get("seed", ctx.seed)),
            int(spec.get("size", ctx.size)),
        )
        return ray.data.from_arrow(images)
    if kind in ("parquet", "lance"):
        from ..sources.reader import read_images

        return read_images(spec["path"], columns=spec.get("columns"))
    raise ValueError(f"unknown source kind {kind!r}")


def _load_features(spec: dict | None, ctx: BuildContext) -> pa.Table:
    from ..sources import synth

    spec = spec or {"kind": "synth"}
    if spec.get("kind", "synth") == "synth":
        return synth.gen_features_shard(
            np.arange(int(spec.get("n_images", ctx.n_images))),
            int(spec.get("n_images", ctx.n_images)),
            int(spec.get("seed", ctx.seed)),
            int(spec.get("size", ctx.size)),
        )
    import pyarrow.parquet as pq

    return pq.read_table(spec["path"])


@register_step("tile_plan")
def _tile_plan(ds, ctx, **kw):
    from ..stages import tiler

    return tiler.plan_tiles_ds(ds, tile_size=int(kw.get("tile_size", 128)))


@register_step("tile_cut")
def _tile_cut(ds, ctx, **kw):
    from ..stages import tiler

    return tiler.cut_tiles(
        ds,
        tile_size=int(kw.get("tile_size", 128)),
        nodata_threshold=kw.get("nodata_threshold"),
    )


@register_step("clip_join")
def _clip_join(ds, ctx, **kw):
    from ..stages.joins import spatial_join

    feats = _load_features(kw.get("features"), ctx)
    cols = [c for c in ("tile_id", "image_id", "cell", "x0", "y0", "x1", "y1") if c in ds.schema().names]
    return spatial_join(
        ds.select_columns(cols), feats,
        min_partial_perc=float(kw.get("min_partial_perc", 0.0)),
    )


@register_step("masks")
def _masks(ds, ctx, **kw):
    from ..stages import masks

    return masks.masks_from_join(ds, tile_size=int(kw.get("tile_size", 128)))


@register_step("polygonize")
def _polygonize(ds, ctx, **kw):
    from ..stages import polygonize

    return polygonize.masks_to_polygons(
        ds, mask_col=kw.get("mask_col", "footprint"), min_area=float(kw.get("min_area", 0.0))
    )


@register_step("augment")
def _augment(ds, ctx, **kw):
    from ..stages import augment

    return augment.augment(ds, kw.get("augmentations", {}), seed=int(kw.get("seed", ctx.seed)))


@register_step("resize")
def _resize(ds, ctx, **kw):
    from ..stages import multimodal

    return ds.map_batches(
        multimodal.ImageResizer(int(kw["w"]), int(kw["h"])),
        batch_format="pyarrow", batch_size=8,
    )


@register_step("embed")
def _embed(ds, ctx, **kw):
    from ..stages import multimodal

    return multimodal.extract_embeddings(ds, dim=int(kw.get("dim", 64)))


@register_step("fill_nodata")
def _fill(ds, ctx, **kw):
    from ..stages import fill

    if kw.get("mode", "mean") == "mean":
        return fill.fill_nodata_mean(ds, nodata=float(kw.get("nodata", 0.0)))
    return fill.fill_nodata_constant(ds, value=float(kw["value"]), nodata=float(kw.get("nodata", 0.0)))


@register_step("drop_columns")
def _drop(ds, ctx, **kw):
    return ds.drop_columns(list(kw["columns"]))


@register_step("select_columns")
def _select(ds, ctx, **kw):
    return ds.select_columns(list(kw["columns"]))


@register_step("limit")
def _limit(ds, ctx, **kw):
    return ds.limit(int(kw["n"]))


# ---------------------------------------------------------------------------
# Control-flow combinators — the PipeSegment Conditional / Map / While
# surface (/root/reference/solaris/preproc/pipesegment.py:200-346)
# re-expressed on Ray Datasets.  The reference versions route ONE piped
# datum through a branch; the Dataset versions route ROWS: a predicate
# splits the stream, each branch runs its own sub-chain, and ``union``
# recombines — filter+union is the streaming-native "if".
# ---------------------------------------------------------------------------


_PRED_OPS = {"==", "!=", "<", "<=", ">", ">=", "in"}


def _predicate(spec: dict):
    """Config predicate {col, op, value} -> (pa.Table -> BooleanArray)."""
    import pyarrow.compute as pc

    col, op, value = spec["col"], spec.get("op", "=="), spec.get("value")
    if op not in _PRED_OPS:
        raise ValueError(f"unknown predicate op {op!r}; known: {sorted(_PRED_OPS)}")

    def fn(t: pa.Table):
        if op == "in":
            return pc.is_in(t[col], value_set=pa.array(list(value)))
        arr = t[col]
        return {
            "==": pc.equal, "!=": pc.not_equal,
            "<": pc.less, "<=": pc.less_equal,
            ">": pc.greater, ">=": pc.greater_equal,
        }[op](arr, value)

    return fn


def _apply_steps(ds, steps: list, ctx: BuildContext):
    for step in steps or []:
        kw = dict(step)
        op = kw.pop("op")
        ds = STEP_REGISTRY[op](ds, ctx, **kw)
    return ds


@register_step("conditional")
def _conditional(ds, ctx, **kw):
    """Row-level ``Conditional`` (pipesegment.py:200-233): rows matching
    ``when`` flow through ``then`` steps; the rest flow through ``else``
    steps, or are dropped when no ``else`` is given (the ``ReturnEmpty``
    default).  ``then: []`` is the ``Identity`` branch.

    Scale note: with BOTH branches present the upstream plan feeds two
    consumers; Ray Data re-executes it once per branch.  Set
    ``materialize: true`` to checkpoint the split point instead (pay
    object-store residency once, upstream compute once) — worth it when
    the upstream is expensive relative to its output size.
    """
    import pyarrow.compute as pc

    pred = _predicate(kw["when"])
    then_steps = kw.get("then", [])
    else_steps = kw.get("else")
    if else_steps is not None and kw.get("materialize", False):
        ds = ds.materialize()

    def _keep(t: pa.Table) -> pa.Table:
        return t.filter(pred(t))

    def _drop(t: pa.Table) -> pa.Table:
        return t.filter(pc.invert(pred(t)))

    branch_t = _apply_steps(
        ds.map_batches(_keep, batch_format="pyarrow"), then_steps, ctx
    )
    if else_steps is None:
        return branch_t
    branch_f = _apply_steps(
        ds.map_batches(_drop, batch_format="pyarrow"), else_steps, ctx
    )
    return branch_t.union(branch_f)


@register_step("foreach")
def _foreach(ds, ctx, **kw):
    """``Map`` analogue (pipesegment.py:237-258): run the ``steps``
    template once per entry of ``over`` (a list of kwarg dicts merged
    into every step, entry keys winning) and union the outputs — the
    for-loop-concatenate-outputs shape, with the loop unrolled into
    parallel branches of one lazy plan.  ``tag`` adds a column recording
    the iteration index so downstream steps can tell branches apart.
    """

    over = list(kw["over"])
    steps = kw.get("steps", [])
    tag = kw.get("tag")
    if len(over) > 1 and kw.get("materialize", False):
        ds = ds.materialize()
    outs = []
    for i, params in enumerate(over):
        sub_steps = [{**step, **params} for step in steps]
        sub = _apply_steps(ds, sub_steps, ctx)
        if tag:
            idx = i

            def _tag(t: pa.Table, _i=idx) -> pa.Table:
                return t.append_column(tag, pa.array([_i] * len(t), pa.int32()))

            sub = sub.map_batches(_tag, batch_format="pyarrow")
        outs.append(sub)
    if not outs:
        return ds.limit(0)
    head = outs[0]
    return head.union(*outs[1:]) if len(outs) > 1 else head


def _eval_condition(ds, spec: dict) -> bool:
    """Driver-side loop condition over a tiny aggregate: {agg, col?, op,
    value}.  agg in count|sum|max|min.  Executes the current plan once —
    that is inherent to any data-dependent loop condition."""
    agg = spec.get("agg", "count")
    if agg == "count":
        cur = ds.count()
    else:
        col = spec["col"]
        cur = {"sum": ds.sum, "max": ds.max, "min": ds.min}[agg](col)
        if cur is None:
            return False
    op, value = spec.get("op", ">"), spec["value"]
    return {
        "==": cur == value, "!=": cur != value,
        "<": cur < value, "<=": cur <= value,
        ">": cur > value, ">=": cur >= value,
    }[op]


@register_step("while")
def _while(ds, ctx, **kw):
    """``While`` analogue (pipesegment.py:261-287): re-apply ``steps``
    while ``cond`` (an aggregate predicate) holds, bounded by
    ``max_iters`` (bounded iteration is the honest distributed contract
    — an unbounded data-dependent loop cannot be backpressured).  Each
    iteration materializes its result: the condition must execute the
    plan anyway, and without the checkpoint iteration k would recompute
    iterations 1..k-1 (quadratic re-execution)."""
    cond = kw["cond"]
    steps = kw["steps"]
    max_iters = int(kw.get("max_iters", 16))
    for _ in range(max_iters):
        ds = ds.materialize()
        if not _eval_condition(ds, cond):
            break
        ds = _apply_steps(ds, steps, ctx)
    return ds


@register_step("filter")
def _filter(ds, ctx, **kw):
    """Row filter by the same config predicate as ``conditional.when``."""
    pred = _predicate(kw["when"])

    def _keep(t: pa.Table) -> pa.Table:
        return t.filter(pred(t))

    return ds.map_batches(_keep, batch_format="pyarrow")


def build_pipeline(config: dict | str):
    """Config (dict or YAML string/path) -> lazy Ray Dataset plan."""
    if isinstance(config, str):
        import os

        import yaml

        if os.path.exists(config):
            with open(config) as f:
                config = yaml.safe_load(f)
        else:
            config = yaml.safe_load(config)
    _validate(config)
    ctx = BuildContext(config)
    ds = _load_source(config.get("source", {}), ctx)
    return _apply_steps(ds, config.get("steps", []), ctx)


def _validate(config: dict) -> None:
    """Schema validation — the utils/config.parse analogue: unknown
    step names and missing ops fail BEFORE execution starts.  Recurses
    into combinator branches (conditional then/else, foreach/while
    steps) so a typo three levels deep still fails at build time."""
    if not isinstance(config, dict):
        raise ValueError("config must be a mapping")
    _validate_steps(config.get("steps", []), path="steps")


def _validate_steps(steps: list, path: str) -> None:
    for i, step in enumerate(steps):
        where = f"{path}[{i}]"
        if "op" not in step:
            raise ValueError(f"{where} missing 'op'")
        if step["op"] not in STEP_REGISTRY:
            raise ValueError(
                f"{where}: unknown op {step['op']!r}; known: {sorted(STEP_REGISTRY)}"
            )
        for key in ("then", "else", "steps"):
            if isinstance(step.get(key), list):
                _validate_steps(step[key], path=f"{where}.{key}")
