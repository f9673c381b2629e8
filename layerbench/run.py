"""Layered benchmark for solaris_ray: one workload, end to end or traced.

Usage (from any directory)::

    python3 layerbench/run.py --workload tiles_join --seed 1 --seconds 10 --trace 0

Set-up (timed as ``setup_s``) starts a local Ray session sized to
``--num-cpus`` (default: the CPUs this process may run on), generates
the seeded inputs three times, checking each copy is identical, derives
the expected outputs and runs one checked warm-up pass.  Then complete
passes run until ``--seconds`` have elapsed; every pass checks its
outputs.  ``--trace 0`` reports the end-to-end metrics as medians over
the passes, timed without the CPU time the hypervisor stole
(``trace.Stopwatch``).  ``--trace 1`` also runs one traced pass and in-process
kernel timings, and reports the per-layer metrics instead.

stdout: one information line (host facts, error share, every pass),
then the result line ``{"correct", "attempted", "failed", "metrics"}``.
Scratch data lives under ``.layerbench/`` at the repository root and is
removed at exit, except the span files of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# AF_UNIX socket paths are limited to 107 bytes and Ray puts
# "<temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store" (64
# bytes after <temp>) under its temp dir
RAY_TEMP_MAX = 43

END_TO_END = {
    "images_per_s": "1/s",
    "tiles_join_rows_per_s": "1/s",
    "resume_s": "s",
    "setup_s": "s",
    "peak_heap_mb": "MiB",
}
STAGE_UNITS = {
    "wall_s": "s", "udf_s": "s", "engine_s": "s", "tasks": "count",
    "rows_out": "count", "bytes_out": "bytes", "peak_heap_mb": "MiB",
}
KERNEL_UNITS = {
    "raster.decode_ms_per_mpx": "ms/Mpx",
    "raster.encode_ms_per_mpx": "ms/Mpx",
    "raster.rasterize_us_per_ring": "us/ring",
    "geom.iou_us_per_pair": "us/pair",
    "tiler.cut_ms_per_image": "ms/image",
    "joins.clip_us_per_row": "us/row",
    "masks.tile_ms": "ms/tile",
    "polygonize.ms_per_tile": "ms/tile",
    "evaluate.match_ms_per_image": "ms/image",
    "manifest.checksum_ms_per_krow": "ms/krow",
}


def per_layer_units(stages) -> dict:
    units = {f"{s}.{m}": u for s in stages for m, u in STAGE_UNITS.items()}
    units["masks.nonempty_task_ratio"] = "ratio"
    units["manifest.skip_ratio"] = "ratio"
    units.update(KERNEL_UNITS)
    units["runtime.null_execution_s"] = "s"
    units["trace_overhead_s"] = "s"
    return units


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS when it is set,
    else the number of CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def cpu_steal_s() -> float:
    """Seconds the hypervisor gave the host's CPUs to other guests
    (the steal column of /proc/stat); 0 where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def _attempt(fn, passes: list, label: str):
    """Run one pass; an exception counts as a failed pass."""
    try:
        p = fn()
    except Exception:  # noqa: BLE001 - a failed pass is reported, the run goes on
        traceback.print_exc()
        passes.append({"pass": label, "failures": ["raised " + traceback.format_exc(limit=1)]})
        return None
    passes.append({"pass": label, "wall_s": p.elapsed.wall, "unstolen_s": p.elapsed.unstolen,
                   "resume_wall_s": p.resume.wall, "resume_unstolen_s": p.resume.unstolen,
                   "images": p.images, "rows": p.rows, "failures": p.failures})
    for f in p.failures:
        print(f"layerbench: {label} pass check failed: {f}", file=sys.stderr)
    return p


def start_ray(num_cpus: int):
    import ray

    temp = os.path.join(ROOT, ".lbray")
    if len(temp) > RAY_TEMP_MAX:
        print(f"layerbench: {temp} is too long for Ray's sockets; using Ray's default "
              "temp dir", file=sys.stderr)
        temp = None
    path = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False, _temp_dir=temp,
        object_store_memory=512 * 1024 * 1024,
        # workers import solaris_ray (and this package) from the
        # repository root whatever directory the benchmark started in
        runtime_env={"env_vars": {"PYTHONPATH": path}},
    )
    from ray.data import DataContext

    from solaris_ray.runtime import tune_data_context

    DataContext.get_current().enable_progress_bars = False
    tune_data_context()  # the executor policy every library caller applies


def measure(args, num_cpus: int, work: str) -> tuple[dict, list]:
    from layerbench import kernels, workloads
    from layerbench.trace import Stopwatch, Tracer

    passes: list = []
    sw = Stopwatch()
    start_ray(num_cpus)
    init = sw.read()
    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    gens, digests = [], []
    for _ in range(3):
        sw = Stopwatch()
        digests.append(wl.make_inputs())
        gens.append(sw.read())
    sw = Stopwatch()
    wl.prepare()
    warm = _attempt(wl.warm_up, passes, "warm-up")
    if len(set(digests)) != 1:
        passes[-1]["failures"].append("the same seed generated different inputs")
    rest = sw.read()
    setup_s = init.unstolen + statistics.median(g.unstolen for g in gens) + rest.unstolen

    timed = []
    end = time.perf_counter() + args.seconds
    while True:
        p = _attempt(wl.timed_pass, passes, "timed")
        if p is not None:
            timed.append(p)
        if time.perf_counter() >= end:
            break
    if not timed or warm is None:
        raise RuntimeError("no pass of the workload completed")

    def med(fn):
        return statistics.median(fn(p) for p in timed)

    if not args.trace:
        return {
            "images_per_s": med(lambda p: p.images / p.elapsed.unstolen),
            "tiles_join_rows_per_s": med(lambda p: p.rows / p.elapsed.unstolen),
            "resume_s": med(lambda p: p.resume.unstolen),
            "setup_s": setup_s,
            "peak_heap_mb": med(lambda p: p.peak_heap_mb),
        }, passes

    tr = Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}")
    traced = _attempt(lambda: wl.traced_pass(tr), passes, "traced")
    if traced is None:
        raise RuntimeError("the traced pass did not complete")
    metrics = {name: 0.0 for name in per_layer_units(workloads.STAGES)}
    for stage in workloads.STAGES:
        if any(s["name"] == stage for s in tr.spans):
            metrics.update(tr.stage_metrics(stage, num_cpus))
    metrics.update(wl.layer_extras(tr))
    metrics.update(kernels.kernel_metrics(args.seed, work))
    metrics["runtime.null_execution_s"] = workloads.null_execution_s()
    metrics["trace_overhead_s"] = traced.elapsed.unstolen - med(lambda p: p.elapsed.unstolen)
    _write_trace(args, tr, metrics)
    return metrics, passes


def _write_trace(args, tr, metrics: dict) -> None:
    """Spans stay in memory during the run and are written once here."""
    out = os.path.join(ROOT, ".layerbench", "traces")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{tr.run_id}.json")
    with open(path, "w") as f:
        json.dump({"run_id": tr.run_id, "workload": args.workload, "seed": args.seed,
                   "spans": tr.spans, "metrics": metrics}, f, indent=1)
    print(f"layerbench: spans written to {path}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["tiles_join", "masks_eval", "tiles_join_resume"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="Ray session CPUs (default: nproc)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "solaris_ray", "__init__.py")):
        print(f"layerbench: no solaris_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import ray

    from layerbench.workloads import STAGES

    num_cpus = args.num_cpus or nproc()
    load_before, steal_before = os.getloadavg(), cpu_steal_s()
    work = os.path.join(ROOT, ".layerbench", f"run-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        metrics, passes = measure(args, num_cpus, work)
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for p in passes if p["failures"])
    host = {
        "num_cpus": num_cpus, "nproc": nproc(), "cpus_available": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "cpu_steal_s": cpu_steal_s() - steal_before,
        "ray_version": ray.__version__, "python": platform.python_version(),
    }
    units = per_layer_units(STAGES) if args.trace else END_TO_END
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "host": host, "error_share": failed / len(passes), "passes": passes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
