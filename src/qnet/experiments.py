"""Threshold-scaling sweeps over distinct seeds, paired across n (a seed
gets the same streams at every n), rate tables, and CSV/JSON export.

Outputs are byte-stable for a fixed plan: floats are written with
shortest-roundtrip repr, rows are merged in (n, seed) order regardless of
worker completion order, and wall-clock timings are kept in memory only
(never serialized), so identical plans hash identically.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import des
from .network import NetworkSpec

__all__ = [
    "ExperimentPlan",
    "RateRow",
    "RateTable",
    "ConvergenceReport",
    "run_sweep",
    "compare_to_fluid",
    "write_csv",
    "write_json",
    "export_trace_csv",
    "export_trajectory_csv",
    "export_rate_table_csv",
    "export_rate_table_json",
]


@dataclass
class ExperimentPlan:
    n_values: tuple
    horizon: float
    seeds: tuple
    warmup_frac: float = 0.2
    target_rates: Optional[tuple] = None

    def validate(self) -> None:
        ns = list(self.n_values)
        if not ns or not all(0 < n < math.inf for n in ns) or sorted(ns) != ns or len(set(ns)) != len(ns):
            raise ValueError("n_values must be positive, finite and strictly increasing")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie in [0, 1)")
        seeds = list(self.seeds)
        if not seeds:
            raise ValueError("plan has no seeds")
        if min(seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, not {min(seeds)}")
        # run_sweep takes int(seed): 1.2 and 1.7 would both run seed 1
        fractional = [s for s in seeds if not (s < math.inf and s == int(s))]  # int() of inf or nan raises
        if fractional:
            raise ValueError(f"seeds must be integers, not {fractional[0]}")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be distinct: {max(seeds, key=seeds.count)} repeats")


@dataclass
class RateRow:
    n: float
    seed: int
    flow_rates: tuple                 # departure rates over the window
    admit_rates: tuple
    event_count: int
    error: Optional[str] = None


@dataclass
class RateTable:
    num_flows: int
    rows: list = field(default_factory=list)

    def rates_for(self, n: float) -> np.ndarray:
        return np.array(
            [r.flow_rates for r in self.rows if r.n == n and r.error is None]
        )


def _failed_row(n, seed, error: str) -> RateRow:
    return RateRow(n=n, seed=seed, flow_rates=(), admit_rates=(), event_count=0, error=error)


def _sweep_cell(args):
    spec, n, seed, horizon, warmup = args
    try:
        trace = des.run(spec, n, seed, horizon, warmup_frac=warmup, invariant_checks="off")
    except des.SimulationError as exc:
        return _failed_row(n, seed, str(exc))
    except Exception as exc:  # a fault in one cell must not abort the sweep
        return _failed_row(n, seed, f"{type(exc).__name__}: {exc}")
    return RateRow(
        n=n, seed=seed,
        flow_rates=tuple(float(x) for x in trace.flow_depart_rates),
        admit_rates=tuple(float(x) for x in trace.flow_admit_rates),
        event_count=trace.event_count,
    )


def run_sweep(spec: NetworkSpec, plan: ExperimentPlan, *, workers: int = 1) -> RateTable:
    """Run every (n, seed) cell of the plan and collect long-run rates.

    Each cell runs with ``des.default_event_budget``.  A cell that fails
    is recorded on its row and the other cells still run: a budget error
    by its message, any other exception as ``"TypeName: message"``, and a
    cell whose worker process died as ``"BrokenProcessPool: message"``.  A
    scale n whose n*h is not finite, or whose lower threshold n*h - gap
    is negative, raises ValueError before any cell runs.  Results from up
    to ``workers`` processes, never more than there are cells, are merged
    in (n, seed) order, so the table is the same for any worker count.
    """
    plan.validate()
    if not 0 < plan.horizon < np.inf:
        raise des.EmptyWindowError("empty measurement window")
    for n in plan.n_values:
        des.thresholds(spec, n)
    cells = [
        (spec, float(n), int(seed), plan.horizon, plan.warmup_frac)
        for n in plan.n_values
        for seed in plan.seeds
    ]
    if workers > 1:
        # the pool forks all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
            futures = [pool.submit(_sweep_cell, cell) for cell in cells]
        rows = []
        for (_, n, seed, _, _), future in zip(cells, futures):
            try:
                rows.append(future.result())
            except BrokenProcessPool as exc:
                rows.append(_failed_row(n, seed, f"BrokenProcessPool: {exc}"))
    else:
        rows = [_sweep_cell(c) for c in cells]
    rows.sort(key=lambda r: (r.n, r.seed))
    return RateTable(num_flows=spec.num_flows, rows=rows)


@dataclass
class ConvergenceReport:
    n_values: tuple
    mean_deviation: tuple       # per n: mean over seeds of max_f |rate - R_f|
    min_deviation: tuple
    max_deviation: tuple
    nonincreasing: Optional[bool]   # None when fewer than two n values

    def to_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "mean_deviation": list(self.mean_deviation),
            "min_deviation": list(self.min_deviation),
            "max_deviation": list(self.max_deviation),
            "nonincreasing": self.nonincreasing,
        }


def compare_to_fluid(table: RateTable, target_rates) -> ConvergenceReport:
    """Per-threshold-scale deviation of observed rates from the fluid
    prediction, with a flag for the mean deviation being nonincreasing in
    n (a statistical trend over seeds, not a per-seed guarantee)."""
    if not table.rows:
        raise ValueError("rate table is empty")
    R = np.asarray(target_rates, dtype=float)
    if R.shape != (table.num_flows,):
        got = len(R) if R.ndim == 1 else f"shape {R.shape}"
        raise ValueError(f"expected one target rate per flow ({table.num_flows}), not {got}")
    ns = sorted({r.n for r in table.rows})
    means, mins, maxs = [], [], []
    for n in ns:
        rates = table.rates_for(n)
        if len(rates) == 0:
            means.append(float("nan")); mins.append(float("nan")); maxs.append(float("nan"))
            continue
        devs = np.max(np.abs(rates - R), axis=1)
        means.append(float(devs.mean()))
        mins.append(float(devs.min()))
        maxs.append(float(devs.max()))
    trend = None
    if len(ns) >= 2:
        trend = all(b <= a + 1e-15 for a, b in zip(means, means[1:]))
    return ConvergenceReport(
        n_values=tuple(ns),
        mean_deviation=tuple(means),
        min_deviation=tuple(mins),
        max_deviation=tuple(maxs),
        nonincreasing=trend,
    )


# ---------------------------------------------------------------------------
# CSV / JSON export


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write(path, text: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """One header line, then one line per row; floats in shortest
    round-trip repr."""
    lines = [",".join(header)] + [",".join(_fmt(x) for x in row) for row in rows]
    _write(path, "\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    """Indent 2, sorted keys, final newline."""
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def export_trace_csv(trace: des.SimTrace, path) -> None:
    """Columnar trace: time, per-class queue lengths, cumulative per-class
    departures, cumulative per-flow admissions.  Uses the sampling grid if
    the trace carries one, otherwise a single final-state row."""
    K = len(trace.q_final)
    F = len(trace.admitted)
    header = (
        ["time"]
        + [f"q{k}" for k in range(K)]
        + [f"d{k}" for k in range(K)]
        + [f"admitted{f}" for f in range(F)]
    )
    rows = []
    if trace.sample_times is not None:
        for i, t in enumerate(trace.sample_times):
            rows.append(
                [t, *trace.sample_q[i], *trace.sample_d[i], *trace.sample_admitted[i]]
            )
    else:
        rows.append([trace.horizon, *trace.q_final, *trace.departures, *trace.admitted])
    write_csv(path, header, rows)


def export_trace_json(trace: des.SimTrace, path) -> None:
    summary = {
        "n": trace.n,
        "seed": trace.seed,
        "horizon": trace.horizon,
        "window": list(trace.window),
        "event_count": trace.event_count,
        "flow_depart_rates": [float(x) for x in trace.flow_depart_rates],
        "flow_admit_rates": [float(x) for x in trace.flow_admit_rates],
        "exogenous": [int(x) for x in trace.exogenous],
        "admitted": [int(x) for x in trace.admitted],
        "departures": [int(x) for x in trace.departures],
    }
    write_json(path, summary)


def export_trajectory_csv(traj, path) -> None:
    """Fluid trajectory breakpoints: time, per-class fluid queue contents,
    then the segment rates (per-flow admission, per-class departure)."""
    K = traj.q.shape[1]
    F = traj.u.shape[1]
    header = (
        ["time"]
        + [f"q{k}" for k in range(K)]
        + [f"admit_rate{f}" for f in range(F)]
        + [f"depart_rate{k}" for k in range(K)]
    )
    rows = []
    for i in range(len(traj.times)):
        rows.append([traj.times[i], *traj.q[i], *traj.admit[i], *traj.depart[i]])
    write_csv(path, header, rows)


def export_rate_table_csv(table: RateTable, path) -> None:
    header = (
        ["n", "seed"]
        + [f"rate{f}" for f in range(table.num_flows)]
        + [f"admit_rate{f}" for f in range(table.num_flows)]
        + ["event_count", "error"]
    )
    rows = []
    for r in table.rows:
        rates = list(r.flow_rates) or [""] * table.num_flows
        admits = list(r.admit_rates) or [""] * table.num_flows
        rows.append([r.n, r.seed, *rates, *admits, r.event_count, r.error or ""])
    write_csv(path, header, rows)


def export_rate_table_json(table: RateTable, path, *, target_rates=None) -> None:
    payload = {
        "num_flows": table.num_flows,
        "rows": [
            {
                "n": r.n,
                "seed": r.seed,
                "flow_rates": list(r.flow_rates),
                "admit_rates": list(r.admit_rates),
                "event_count": r.event_count,
                "error": r.error,
            }
            for r in table.rows
        ],
    }
    if target_rates is not None:
        payload["comparison"] = compare_to_fluid(table, target_rates).to_dict()
    write_json(path, payload)
