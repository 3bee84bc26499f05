"""Span tracing of qnet's layers from outside the package.

The tracer replaces public functions and methods of qnet with wrappers
that record one span per call: a name, start and end times and the index
of the enclosing span.  Spans live in flat arrays while the benchmark
runs; per-layer sums are taken from them after each traced round, and the
spans of the last round are written out when the run ends.  Nothing under
``src/`` changes: the wrappers are installed on the imported modules and
classes and removed again when the traced round ends.
"""
from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict
from typing import Callable, NamedTuple, Optional

import numpy as np


class Target(NamedTuple):
    """One function to wrap: span ``name`` for ``owner.attr``.

    ``name_of(args)`` picks the span name per call instead; ``on_result``
    adds counts read from the return value to the tracer's counters.
    """

    name: str
    owner: object
    attr: str
    name_of: Optional[Callable] = None
    on_result: Optional[Callable] = None


NETWORK_VIEWS = (
    "flow_classes", "station_classes", "class_weights", "visit_cycle",
    "next_class", "arrival_rates", "service_rates",
)
EXPORTS = (
    "export_trace_csv", "export_trace_json", "export_trajectory_csv",
    "export_rate_table_csv", "export_rate_table_json",
)
VIEW = "network.view"


def _solve_kind(args) -> str:
    # a solve is sliding when some queue sits at the threshold hbar, with
    # the same tolerance the fluid solver uses to classify queues
    state = args[0]
    atol = 1e-10 * max(1.0, state.hbar)
    if np.any(np.abs(state.q - state.hbar) < atol):
        return "fluid.solve_rates.sliding"
    return "fluid.solve_rates.plain"


def _count_events(counters, trace) -> None:
    counters["des.events"] += trace.event_count


def _count_breakpoints(counters, traj) -> None:
    counters["fluid.breakpoints"] += len(traj.times)


def layer_targets() -> list:
    """Every traced boundary of the qnet layers, outermost first."""
    from qnet import absorption, cli, des, distributions, experiments, fluid, network

    return [
        Target("cli.main", cli, "main"),
        Target("config.load_config", cli, "load_config"),
        Target("experiments.run_sweep", experiments, "run_sweep"),
        *(Target("experiments.export", experiments, name) for name in EXPORTS),
        Target("des.run", des, "run", on_result=_count_events),
        Target("des.check_invariants", des.Simulation, "check_invariants"),
        Target("distributions.draw", distributions.RenewalStream, "draw"),
        Target("absorption.verify_C1", absorption, "verify_C1"),
        Target("absorption.verify_C2", absorption, "verify_C2"),
        Target("absorption.distance", absorption, "distance"),
        Target("fluid.integrate", absorption, "integrate", on_result=_count_breakpoints),
        Target("fluid.solve_rates", fluid, "solve_rates", name_of=_solve_kind),
        *(Target(VIEW, network.NetworkSpec, name) for name in NETWORK_VIEWS),
    ]


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: defaultdict = defaultdict(int)

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def clear(self) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()

    def wrap(self, fn, name: str, name_of=None, on_result=None):
        names, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter
        fixed = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(fixed if name_of is None else self._id(name_of(args)))
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every target with a span wrapper; restore on exit."""
        saved = []
        try:
            for t in targets:
                raw = t.owner.__dict__[t.attr] if isinstance(t.owner, type) else getattr(t.owner, t.attr)
                if isinstance(raw, property):
                    new = property(self.wrap(raw.fget, t.name, t.name_of, t.on_result))
                else:
                    new = self.wrap(raw, t.name, t.name_of, t.on_result)
                saved.append((t.owner, t.attr, raw))
                setattr(t.owner, t.attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }


def self_times(parent, start, end) -> np.ndarray:
    """Per span: its duration minus the part of it its children cover.

    Children may overlap one another; the covered time is the length of
    the union of the children's intervals clipped to the parent's.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    covered = [0.0] * len(start)
    order = np.lexsort((start, parent))
    order = order[parent[order] >= 0]
    starts, ends = start.tolist(), end.tolist()
    current, reach, limit = -1, 0.0, 0.0
    for i, p in zip(order.tolist(), parent[order].tolist()):
        if p != current:
            current, reach, limit = p, starts[p], ends[p]
        lo = max(starts[i], reach)
        hi = min(ends[i], limit)
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return (end - start) - np.array(covered)


def summarize(tracer: Tracer) -> dict:
    """Per span name: call count, inclusive seconds and self seconds,
    plus the top-level time of the network views and the counters."""
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    own = self_times(a["parent"], a["start"], a["end"])
    sums = defaultdict(float)
    for nid, name in enumerate(tracer.names):
        sel = a["name_id"] == nid
        sums[f"{name}:count"] += int(sel.sum())
        sums[f"{name}:incl"] += float(dur[sel].sum())
        sums[f"{name}:self"] += float(own[sel].sum())
    if VIEW in tracer.names:
        vid = tracer.names.index(VIEW)
        is_view = a["name_id"] == vid
        parent_view = np.zeros_like(is_view)
        has_parent = a["parent"] >= 0
        parent_view[has_parent] = a["name_id"][a["parent"][has_parent]] == vid
        sums["view_top:incl"] = float(dur[is_view & ~parent_view].sum())
    for key, value in tracer.counters.items():
        sums[key] += value
    return sums


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str            # end-to-end metric and workload it should move
    value: Callable       # (sums, rounds) -> float


def _per_round(count, rounds: int) -> int:
    return int(count) // rounds


def _n(s, key):
    return s.get(f"{key}:count", 0)


def _incl(s, key):
    return s.get(f"{key}:incl", 0.0)


def _self(s, key):
    return s.get(f"{key}:self", 0.0)


_RUN, _CHECK, _DRAW = "des.run", "des.check_invariants", "distributions.draw"
_SLIDE, _PLAIN = "fluid.solve_rates.sliding", "fluid.solve_rates.plain"
_INTEG, _C1, _C2 = "fluid.integrate", "absorption.verify_C1", "absorption.verify_C2"
_SWEEP = "experiments.run_sweep"

# Counts and seconds are per round: every round of a run repeats the same
# seeded inputs, so counts repeat exactly for a seed.
LAYER_METRICS = (
    LayerMetric("des.events", "count", "lower",
                "op_ref_ms_p50/work_per_ref_s on sweep_switch; 0 on c1_switch",
                lambda s, r: _per_round(s.get("des.events", 0), r)),
    LayerMetric("des.ns_per_event", "ns", "lower",
                "work_per_ref_s and op_ref_ms_* on sweep_switch; ~nothing on checked_random",
                lambda s, r: 1e9 * _div(_self(s, _RUN), s.get("des.events", 0))),
    LayerMetric("des.check_calls", "count", "lower",
                "work_per_ref_s on checked_random; 0 on sweep_switch",
                lambda s, r: _per_round(_n(s, _CHECK), r)),
    LayerMetric("des.check_us_per_call", "us", "lower",
                "work_per_ref_s on checked_random",
                lambda s, r: 1e6 * _div(_incl(s, _CHECK), _n(s, _CHECK))),
    LayerMetric("des.check_share", "fraction", "lower",
                "work_per_ref_s on checked_random",
                lambda s, r: _div(_incl(s, _CHECK), _incl(s, _RUN))),
    LayerMetric("distributions.draws", "count", "lower",
                "work_per_ref_s on sweep_switch",
                lambda s, r: _per_round(_n(s, _DRAW), r)),
    LayerMetric("distributions.ns_per_draw", "ns", "lower",
                "work_per_ref_s on sweep_switch",
                lambda s, r: 1e9 * _div(_incl(s, _DRAW), _n(s, _DRAW))),
    LayerMetric("distributions.draw_share", "fraction", "lower",
                "work_per_ref_s on sweep_switch",
                lambda s, r: _div(_incl(s, _DRAW), _incl(s, _RUN))),
    LayerMetric("fluid.solve_calls.sliding", "count", "lower",
                "work_per_ref_s and op_ref_ms_p90 on c1_switch",
                lambda s, r: _per_round(_n(s, _SLIDE), r)),
    LayerMetric("fluid.solve_calls.plain", "count", "lower",
                "op_ref_ms_p50 on c1_switch",
                lambda s, r: _per_round(_n(s, _PLAIN), r)),
    LayerMetric("fluid.solve_us.sliding", "us", "lower",
                "work_per_ref_s and op_ref_ms_p90 on c1_switch",
                lambda s, r: 1e6 * _div(_incl(s, _SLIDE), _n(s, _SLIDE))),
    LayerMetric("fluid.solve_us.plain", "us", "lower",
                "op_ref_ms_p50 on c1_switch",
                lambda s, r: 1e6 * _div(_incl(s, _PLAIN), _n(s, _PLAIN))),
    LayerMetric("fluid.integrate_calls", "count", "lower",
                "op_ref_ms_p50/op_ref_ms_p90 on c1_switch",
                lambda s, r: _per_round(_n(s, _INTEG), r)),
    LayerMetric("fluid.breakpoints", "count", "lower",
                "op_ref_ms_p50/op_ref_ms_p90 on c1_switch",
                lambda s, r: _per_round(s.get("fluid.breakpoints", 0), r)),
    LayerMetric("fluid.breakpoints_per_s", "1/s", "higher",
                "op_ref_ms_p50/op_ref_ms_p90 on c1_switch",
                lambda s, r: _div(s.get("fluid.breakpoints", 0), _incl(s, _INTEG))),
    LayerMetric("fluid.integrate_self_s", "s", "lower",
                "op_ref_ms_p50/op_ref_ms_p90 on c1_switch",
                lambda s, r: _self(s, _INTEG) / r),
    LayerMetric("absorption.hit_search_s", "s", "lower",
                "op_ref_ms_p50/op_ref_ms_p90 on c1_switch",
                lambda s, r: _self(s, _C1) / r),
    LayerMetric("absorption.hit_us_per_segment", "us", "lower",
                "op_ref_ms_p50/op_ref_ms_p90 on c1_switch",
                lambda s, r: 1e6 * _div(
                    _self(s, _C1), s.get("fluid.breakpoints", 0) - _n(s, _INTEG))),
    LayerMetric("absorption.distance_calls", "count", "lower",
                "op_ref_ms_p50 on c1_switch",
                lambda s, r: _per_round(_n(s, "absorption.distance"), r)),
    LayerMetric("absorption.verify_C2_self_s", "s", "lower",
                "work_per_ref_s on c1_switch",
                lambda s, r: _self(s, _C2) / r),
    LayerMetric("network.view_calls", "count", "lower",
                "op_ref_ms_* on c1_switch (predicted under 1%)",
                lambda s, r: _per_round(_n(s, VIEW), r)),
    LayerMetric("network.view_s", "s", "lower",
                "op_ref_ms_* on c1_switch (predicted under 1%)",
                lambda s, r: s.get("view_top:incl", 0.0) / r),
    LayerMetric("experiments.run_sweep_s", "s", "lower",
                "work_per_ref_s on sweep_switch",
                lambda s, r: _incl(s, _SWEEP) / r),
    LayerMetric("experiments.overhead_s", "s", "lower",
                "work_per_ref_s on sweep_switch (predicted under 1%)",
                lambda s, r: _self(s, _SWEEP) / r),
    LayerMetric("experiments.export_s", "s", "lower",
                "work_per_ref_s on sweep_switch (predicted under 1%)",
                lambda s, r: _incl(s, "experiments.export") / r),
    LayerMetric("config.load_s", "s", "lower",
                "work_per_ref_s on sweep_switch (predicted under 1%)",
                lambda s, r: _incl(s, "config.load_config") / r),
    LayerMetric("cli.self_s", "s", "lower",
                "work_per_ref_s on sweep_switch (predicted under 1%)",
                lambda s, r: _self(s, "cli.main") / r),
)
OVERHEAD = LayerMetric("trace.overhead_frac", "fraction", "lower",
                       "none: traced minus untraced round time over untraced", None)


def layer_metrics(sums: dict, rounds: int, overhead_frac: float) -> dict:
    out = {m.name: {"value": m.value(sums, rounds), "unit": m.unit} for m in LAYER_METRICS}
    out[OVERHEAD.name] = {"value": overhead_frac, "unit": OVERHEAD.unit}
    return out
