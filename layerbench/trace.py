"""Spans around layer calls, and a parser for Ray Data's ``ds.stats()`` text.

The traced pass materializes each layer's output before the next layer
starts, wraps every layer call in a span and attaches the operators that
the call added to ``ds.stats()``.  Nothing here runs inside the library:
spans are recorded from the benchmark's own files, around public calls.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from typing import NamedTuple

_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
_TIME = re.compile(r"(-?[\d.]+(?:e-?\d+)?)(us|ms|s)$")
_OP = re.compile(r"^Operator \d+ (.+?): ?(.*)$")
_SUB = re.compile(r"^\tSuboperator \d+ (.+?): ?(.*)$")
_TASKS = re.compile(r"(\d+) tasks executed")
_BLOCKS = re.compile(r"(\d+) blocks produced(?: in ([\d.]+)s)?")
_ALL_TO_ALL = re.compile(r"^executed in (-?[\d.]+)s")


def _seconds(token: str) -> float:
    m = _TIME.match(token.strip())
    if not m:
        raise ValueError(f"not a Ray Data duration: {token!r}")
    return float(m.group(1)) * _UNITS[m.group(2)]


def _totals(line: str) -> list[str]:
    """'* X: 1ms min, 2ms max, 1.5ms mean, 3ms total' -> ['1ms', ...]."""
    return [part.strip().rsplit(" ", 1)[0] for part in line.split(":", 1)[1].split(",")]


def _new_op(name: str, summary: str) -> dict:
    tasks = _TASKS.search(summary)
    blocks = _BLOCKS.search(summary)
    return {
        "name": name,
        "wall_s": float(blocks.group(2)) if blocks and blocks.group(2) else 0.0,
        "remote_wall_s": 0.0,
        "cpu_s": 0.0,
        "udf_s": 0.0,
        "tasks": int(tasks.group(1)) if tasks else 0,
        "blocks": int(blocks.group(1)) if blocks else 0,
        "rows_out": 0,
        "bytes_out": 0,
        "peak_heap_mb": 0.0,
        "cached": "[execution cached]" in summary,
    }


def parse_stats(text: str) -> list[dict]:
    """Ray Data ``ds.stats()`` text -> one dict per operator, in order.

    Each dict has name, wall_s (the operator's own "produced in" time),
    remote_wall_s, cpu_s and udf_s (task totals), tasks, blocks,
    rows_out, bytes_out and peak_heap_mb (largest task).  An all-to-all
    operator (Repartition, Sort, ...) yields one entry carrying its
    "executed in" wall, followed by one entry per sub-operator named
    ``"<operator>/<sub-operator>"``.
    """
    ops: list[dict] = []
    cur: dict | None = None
    parent = None
    for raw in text.splitlines():
        m = _OP.match(raw)
        if m:
            name, rest = m.group(1), m.group(2)
            a2a = _ALL_TO_ALL.match(rest)
            cur = _new_op(name, "" if a2a else rest)
            if a2a:
                cur["wall_s"] = max(0.0, float(a2a.group(1)))
            parent = name if a2a else None
            ops.append(cur)
            continue
        m = _SUB.match(raw)
        if m and parent is not None:
            cur = _new_op(f"{parent}/{m.group(1)}", m.group(2))
            ops.append(cur)
            continue
        line = raw.strip()
        if cur is None or not line.startswith("* "):
            if line.startswith("Dataset "):
                cur = None  # throughput / iterator sections follow the operators
            continue
        if line.startswith("* Remote wall time:"):
            cur["remote_wall_s"] = _seconds(_totals(line)[3])
        elif line.startswith("* Remote cpu time:"):
            cur["cpu_s"] = _seconds(_totals(line)[3])
        elif line.startswith("* UDF time:"):
            cur["udf_s"] = _seconds(_totals(line)[3])
        elif line.startswith("* Peak heap memory usage (MiB):"):
            cur["peak_heap_mb"] = float(_totals(line)[1])
        elif line.startswith("* Output num rows per block:"):
            cur["rows_out"] = int(_totals(line)[3])
        elif line.startswith("* Output size bytes per block:"):
            cur["bytes_out"] = int(_totals(line)[3])
    return ops


def _cpu_jiffies() -> tuple[int, int]:
    """(busy, steal) clock ticks summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(v) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = v
    return user + nice + system + irq + softirq, steal


class Timing(NamedTuple):
    wall: float
    unstolen: float  # wall without the share the hypervisor stole


class Stopwatch:
    """Times an interval as wall time and as wall time without steal.

    On a shared virtual machine the host can run another guest while a
    vCPU of this one has work; /proc/stat counts that time as steal.
    Work that kept the guest's CPUs busy for B and was stolen from
    for S stretched by (B + S) / B, so ``unstolen = wall * B / (B + S)``
    estimates the interval on a machine of its own.  Where the host
    reports no steal the two readings are equal.
    """

    def __init__(self):
        self._t0 = time.perf_counter()
        self._j0 = _cpu_jiffies()

    def read(self) -> Timing:
        wall = time.perf_counter() - self._t0
        busy, steal = (b - a for a, b in zip(self._j0, _cpu_jiffies()))
        return Timing(wall, wall * busy / (busy + steal) if busy + steal > 0 else wall)


class Tracer:
    """In-memory spans: name, start, end, parent span id and one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "ops": [],
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_time(self, rec: dict) -> float:
        """Span duration minus the time its direct children cover."""
        children = sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] == rec["id"]
        )
        return rec["end"] - rec["start"] - children

    def stage_metrics(self, stage: str, cpus: int) -> dict:
        """Per-layer numbers for every span named ``stage``.

        wall_s is span self time; udf_s, tasks and peak heap come from
        the operators the stage added; rows_out and bytes_out are those
        of each span's last operator (the stage's output);
        engine_s = wall_s - udf_s / cpus.
        """
        recs = [s for s in self.spans if s["name"] == stage]
        ops = [op for s in recs for op in s["ops"]]
        wall = sum(self.self_time(s) for s in recs)
        udf = sum(op["udf_s"] for op in ops)
        outs = [s["ops"][-1] for s in recs if s["ops"]]
        return {
            f"{stage}.wall_s": wall,
            f"{stage}.udf_s": udf,
            f"{stage}.engine_s": wall - udf / cpus,
            f"{stage}.tasks": sum(op["tasks"] for op in ops),
            f"{stage}.rows_out": sum(op["rows_out"] for op in outs),
            f"{stage}.bytes_out": sum(op["bytes_out"] for op in outs),
            f"{stage}.peak_heap_mb": max((op["peak_heap_mb"] for op in ops), default=0.0),
        }
