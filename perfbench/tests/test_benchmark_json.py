"""Every metric the benchmark prints is named in BENCHMARK.json, which follows its schema."""

import json
import re
from pathlib import Path

import pytest

import run
from calibrate import CAL_REF_S
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[2]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def names(section):
    return [m["name"] for m in DECLARED[section]]


def records(slowdown=1.0):
    # three cycles of a three-operation workload, on a host at 1 / slowdown of the reference speed
    times = [0.3, 0.1, 0.2, 0.5, 0.1, 0.4, 0.4, 0.1, 0.3]
    return [run.Record(f"op{i % 3}", i % 3, 10.0 * i, slowdown * t, slowdown * CAL_REF_S)
            for i, t in enumerate(times)]


def setups(slowdown=1.0):
    return [(slowdown * s, slowdown * CAL_REF_S) for s in (0.5, 0.7, 0.6)]


def test_schema():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["perfbench"]
    assert 1 <= DECLARED["run_seconds"] <= 60 and isinstance(DECLARED["run_seconds"], int)
    assert 2 <= len(DECLARED["workloads"]) <= 8
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_end_to_end_metrics_are_the_declared_ones():
    measured = run.end_to_end_metrics(records(), 123.0, setups())
    out = run.with_units(DECLARED["end_to_end"], measured)
    assert list(out) == names("end_to_end")
    assert out["setup_s"] == {"value": 0.6, "unit": "s"}
    # median of the three cycles per operation: 0.4, 0.1, 0.3
    assert out["ops_per_s"]["value"] == pytest.approx(3 / 0.8)
    assert out["op_s.p50"]["value"] == pytest.approx(0.3)
    assert out["op_s.p90"]["value"] == pytest.approx(0.4)
    # with an even number of operations per cycle, p50 averages the middle two
    four = records() + [run.Record("op3", 3, 100.0, 0.2, CAL_REF_S)]
    assert run.end_to_end_metrics(four, 1.0, setups())["op_s.p50"] == pytest.approx(0.25)


def test_times_are_scaled_to_the_reference_host():
    reference = run.end_to_end_metrics(records(), 1.0, setups())
    slow = run.end_to_end_metrics(records(1.5), 1.0, setups(1.5))
    assert slow == pytest.approx(reference)
    raw = run.end_to_end_metrics(records(1.5), 1.0, setups(1.5), scale=False)
    assert raw["op_s.p50"] == pytest.approx(1.5 * 0.3)
    assert raw["setup_s"] == pytest.approx(1.5 * 0.6)
    # an operation is scaled by the mean of the calibrations within WINDOW_S of it
    near = [run.Record("op0", 0, 0.0, 0.2, CAL_REF_S), run.Record("op0", 0, 1.0, 0.6, 3 * CAL_REF_S)]
    assert run.scaled_seconds(near) == pytest.approx([0.2 / 2, 0.6 / 2])
    far = [run.Record("op0", 0, 0.0, 0.2, CAL_REF_S), run.Record("op0", 0, 10.0, 0.6, 3 * CAL_REF_S)]
    assert run.scaled_seconds(far) == pytest.approx([0.2, 0.2])


def test_per_layer_metrics_are_the_declared_ones():
    tracer = Tracer()
    tracer.op, tracer.op_labels[0] = 0, "op0"
    root = tracer.begin("op", start=0.0)
    tracer.end(tracer.begin("reports.rows", start=0.2), end=0.3)
    tracer.add("reports.rows_built", 4)
    tracer.add("reports.rows_written", 2)
    tracer.end(root, end=1.0)
    tracer.op = None
    measured = run.per_layer_metrics(tracer, [run.Record("op0", 0, 0.0, 0.8, CAL_REF_S)],
                                     [run.Record("op0", 0, 10.0, 1.0, CAL_REF_S)])
    out = run.with_units(DECLARED["per_layer"], measured)
    assert list(out) == names("per_layer")
    assert out["reports.rows_s"]["value"] == pytest.approx(0.1)
    assert out["reports.rows_useful_ratio"]["value"] == 0.5
    assert out["reports.rows_built"]["value"] == 4
    assert out["trace.uncovered_share"]["value"] == pytest.approx(0.9)
    assert out["trace.overhead"]["value"] == pytest.approx(0.25)


def test_an_undeclared_metric_is_refused():
    measured = run.end_to_end_metrics(records(), 1.0, setups())
    measured["fail_ratio"] = 0.0
    with pytest.raises(RuntimeError):
        run.with_units(DECLARED["end_to_end"], measured)


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.nearest_rank(values, 0.5) == 3.0
    assert run.nearest_rank(values, 0.9) == 5.0
    assert run.nearest_rank(values, 0.0) == 1.0
