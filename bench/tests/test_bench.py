"""Tests of the benchmark's own statistics, tracing and failure accounting.

    python3 -m pytest bench/tests -q
"""
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from stats import min_samples, percentile  # noqa: E402


def test_p90_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(100), 90) == 89
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def test_self_time_on_synthetic_span_tree():
    # root [0,10]; children a [1,4] and b [3,6] overlap, c [8,12] runs past
    # the root's end; d [2,3] is a's child
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    own = tracing.self_times(parent, start, end)
    # root: 10 minus the union [1,6] + [8,10]
    np.testing.assert_allclose(own, [3.0, 2.0, 3.0, 4.0, 1.0])


def test_tracer_records_nesting_and_restores_targets():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    raw_outer, raw_inner = Box.__dict__["outer"], Box.__dict__["inner"]
    tracer = tracing.Tracer()
    targets = [
        tracing.Target("outer", Box, "outer"),
        tracing.Target("inner", Box, "inner",
                       on_result=lambda counters, r: counters.__setitem__("seen", r)),
    ]
    # staticmethod objects are not callable wrappers' inputs; unwrap them
    Box.outer, Box.inner = raw_outer.__func__, raw_inner.__func__
    with tracer.installed(targets):
        assert Box.outer(3) == 7
    assert Box.__dict__["outer"] is raw_outer.__func__
    assert tracer.names == ["outer", "inner"]
    assert list(tracer.parent) == [-1, 0]
    assert tracer.counters["seen"] == 6
    sums = tracing.summarize(tracer)
    assert sums["outer:count"] == 1 and sums["inner:count"] == 1
    assert sums["outer:self"] == pytest.approx(sums["outer:incl"] - sums["inner:incl"])


def test_stopwatch_rescales_by_the_probes_around_each_call(monkeypatch):
    probes = iter([0.5, 0.01, 0.03, 0.02])
    monkeypatch.setattr(clock, "probe", lambda: next(probes))
    watch = clock.Stopwatch(calibrated=True)   # discards the first probe
    _, wall1, ref1 = watch(time.sleep, 0.001)
    _, wall2, ref2 = watch(time.sleep, 0.001)
    assert watch.probes == [0.01, 0.03, 0.02]
    assert ref1 == pytest.approx(wall1 * clock.REF_S / 0.02)
    assert ref2 == pytest.approx(wall2 * clock.REF_S / 0.025)
    _, wall, ref = clock.Stopwatch(calibrated=False)(time.sleep, 0.001)
    assert wall == ref


def test_corrupted_outputs_count_as_failures():
    seeds = [1, 2]
    rows = [{"n": float(n), "seed": s, "flow_rates": [0.5 - 1.0 / n] * 3,
             "admit_rates": [], "event_count": 1, "error": None}
            for n in (10, 300) for s in seeds]
    payload = {"rows": rows}
    assert workloads.check_sweep(payload, (10, 300), seeds) == []
    rows[1]["error"] = "budget"
    assert len(workloads.check_sweep(payload, (10, 300), seeds)) == 1
    rows[1]["error"] = None
    for r in rows:
        r["flow_rates"] = [0.4] * 3   # no convergence: every cell fails
    assert len(workloads.check_sweep(payload, (10, 300), seeds)) == 4

    c1 = {"labels": ["region2"], "ratios": [2.5], "violations": []}
    assert len(workloads.check_c1(c1)) == 1
    c1["ratios"] = [1.9]
    assert workloads.check_c1(c1) == []

    c2 = {"target": [0.5, 0.5, 0.5], "flow_rates": [[0.5, 0.5, 0.5], [0.5, 0.5 + 1e-9, 0.5]]}
    assert len(workloads.check_c2(c2)) == 1

    trace = {"admitted": [5, 3], "exogenous": [5, 2]}
    assert len(workloads.check_trace(trace)) == 1


def test_runner_fails_an_op_whose_output_changes():
    outputs = iter([b"a", b"a", b"b"])

    def op(_tracer):
        return workloads.OpResult([1.0], [1.0], 1, 1.0, 1.0, 2, 0, next(outputs), [])

    class Fake:
        ops = [workloads.Op("x", op)]

    runner = run.Runner(Fake(), clock.Stopwatch(calibrated=False))
    for _ in range(3):
        runner.op(0)
    assert (runner.totals.attempted, runner.totals.failed) == (6, 2)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    traced = {m.name: (m.unit, m.better) for m in tracing.LAYER_METRICS + (tracing.OVERHEAD,)}
    assert declared == traced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
