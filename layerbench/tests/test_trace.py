"""The ds.stats() parser against a stored sample, and span bookkeeping."""

import os
import time

import pytest

from layerbench.trace import Tracer, parse_stats

SAMPLE = os.path.join(os.path.dirname(__file__), "stats_sample.txt")


def _sample_ops():
    with open(SAMPLE) as f:
        return parse_stats(f.read())


def test_parse_names_every_operator_and_sub_operator_in_order():
    assert [op["name"] for op in _sample_ops()] == [
        "FromArrow",
        "MapBatches(<lambda>)->MapBatches(_join)",
        "MapBatches(_tag)",
        "Repartition",
        "Repartition/RepartitionSplit",
        "Repartition/RepartitionReduce",
        "Sort",
        "Sort/SortMap",
        "Sort/SortReduce",
        "MapBatches(_bucket)",
    ]


def test_parse_reads_wall_cpu_udf_tasks_rows_bytes_and_heap():
    ops = {op["name"]: op for op in _sample_ops()}
    groups = ops["MapBatches(_bucket)"]
    assert groups["tasks"] == 8 and groups["blocks"] == 8
    assert groups["wall_s"] == pytest.approx(0.84)
    assert groups["remote_wall_s"] == pytest.approx(0.39594)
    assert groups["cpu_s"] == pytest.approx(0.27358)
    assert groups["udf_s"] == pytest.approx(0.35254)
    assert (groups["rows_out"], groups["bytes_out"]) == (27, 33508)
    assert groups["peak_heap_mb"] == pytest.approx(94.62)
    # microseconds and milliseconds
    assert ops["FromArrow"]["remote_wall_s"] == pytest.approx(23.34e-6)
    assert ops["MapBatches(_tag)"]["udf_s"] == pytest.approx(648.18e-6)
    # an all-to-all operator carries its wall; its sub-operators their tasks
    assert ops["Repartition"]["wall_s"] == pytest.approx(3.78)
    reduce_ = ops["Repartition/RepartitionReduce"]
    assert (reduce_["tasks"], reduce_["blocks"], reduce_["rows_out"]) == (1, 8, 153)
    assert reduce_["remote_wall_s"] == pytest.approx(17.42e-3)


def test_stage_metrics_use_self_time_and_the_stage_operators():
    tr = Tracer("t")
    ops = _sample_ops()
    with tr.span("pass"):
        with tr.span("masks") as rec:
            with tr.span("inner"):
                time.sleep(0.02)
            time.sleep(0.03)
        rec["ops"] = ops[2:]
    masks_span, inner = tr.spans[1], tr.spans[2]
    assert (masks_span["parent"], inner["parent"]) == (0, 1)
    assert {s["run_id"] for s in tr.spans} == {"t"}
    m = tr.stage_metrics("masks", cpus=2)
    duration = masks_span["end"] - masks_span["start"]
    assert m["masks.wall_s"] == pytest.approx(duration - (inner["end"] - inner["start"]))
    udf = sum(op["udf_s"] for op in ops[2:])
    assert m["masks.udf_s"] == pytest.approx(udf)
    assert m["masks.engine_s"] == pytest.approx(m["masks.wall_s"] - udf / 2)
    assert m["masks.tasks"] == sum(op["tasks"] for op in ops[2:])
    assert (m["masks.rows_out"], m["masks.bytes_out"]) == (27, 33508)
    assert m["masks.peak_heap_mb"] == pytest.approx(94.62)
