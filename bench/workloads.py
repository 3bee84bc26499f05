"""Seeded inputs, operations and output checks of the three workloads.

Every workload is closed-loop in one thread: each operation (op) starts
when the previous one has returned.  A round is a fixed list of ops whose
inputs derive from the workload seed alone, so every round of a run
repeats the same work and its outputs must repeat byte for byte.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from clock import Stopwatch

# qnet is imported from the sources next to the benchmark and nowhere else
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "qnet" / "__init__.py").is_file():
    raise ImportError(f"no qnet sources under {SRC}")
sys.path.insert(0, str(SRC))

import qnet  # noqa: E402
from qnet import absorption, cli, des  # noqa: E402
from qnet.network import SWITCH  # noqa: E402

if Path(qnet.__file__).resolve().parent != SRC / "qnet":
    raise ImportError(f"imported qnet from {qnet.__file__}, not from {SRC}")

Q2, Q7 = SWITCH.flow2_ingress, SWITCH.flow2_egress


class OpResult(NamedTuple):
    wall_ms: list        # latency samples this op contributes, wall clock
    ref_ms: list         # the same samples in reference ms (see clock.py)
    work: float          # units counted by work_per_ref_s
    wall_s: float        # wall seconds those units took
    ref_s: float         # reference seconds those units took
    attempted: int
    failed: int
    output: bytes        # canonical output, compared across rounds
    reasons: list        # why units failed


class Op(NamedTuple):
    kind: str                 # output digest group
    run: Callable             # (stopwatch) -> OpResult


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


@contextlib.contextmanager
def timed_calls(module, name: str, watch):
    """Time every call qnet makes to ``module.name`` while the block runs;
    yields the list of (wall seconds, reference seconds) it fills."""
    inner = getattr(module, name)
    times = []

    def timed(*args, **kwargs):
        result, wall, ref = watch(inner, *args, **kwargs)
        times.append((wall, ref))
        return result

    setattr(module, name, timed)
    try:
        yield times
    finally:
        setattr(module, name, inner)


# ---------------------------------------------------------------------------
# sweep_switch: `qnet sweep` on the switch preset, criterion-5 plan shape


SWEEP_N = (10, 30, 100, 300)
SWEEP_SEEDS = 5
FLUID_RATES = (0.5, 0.5, 0.5)


def sweep_yaml(n_values, seeds) -> str:
    return (
        "version: 1\n"
        "network: {preset: switch_example}\n"
        "experiment:\n"
        f"  n_values: {list(n_values)}\n"
        "  horizon: 10000\n"
        f"  seeds: {list(seeds)}\n"
        "  warmup_frac: 0.2\n"
        f"  target_rates: {list(FLUID_RATES)}\n"
    )


def check_sweep(payload: dict, n_values, seeds) -> list:
    """Failure reasons per (n, seed) cell: a cell fails when its row is
    missing or carries an error; every cell fails when the mean deviation
    from the fluid rates is not lower at the largest n than the smallest."""
    rows = {(r["n"], r["seed"]): r for r in payload.get("rows", [])}
    reasons = []
    for n in n_values:
        for s in seeds:
            row = rows.get((float(n), s))
            if row is None:
                reasons.append(f"cell (n={n}, seed={s}) missing")
            elif row["error"] is not None or len(row["flow_rates"]) != len(FLUID_RATES):
                reasons.append(f"cell (n={n}, seed={s}) failed: {row['error']}")
    if reasons:
        return reasons

    def mean_dev(n):
        devs = [max(abs(x - r) for x, r in zip(rows[(float(n), s)]["flow_rates"], FLUID_RATES))
                for s in seeds]
        return sum(devs) / len(devs)

    lo, hi = mean_dev(n_values[0]), mean_dev(n_values[-1])
    if not hi < lo:
        return [f"deviation at n={n_values[-1]} ({hi:.4g}) not below n={n_values[0]} ({lo:.4g})"] * (
            len(n_values) * len(seeds)
        )
    return []


class SweepSwitch:
    name = "sweep_switch"
    labels = ("sweep_events_per_s", "sweep_cell_ms_p50", "sweep_cell_ms_p90")

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 1)
        self.seeds = [int(x) for x in rng.integers(0, 2**31, SWEEP_SEEDS)]
        self.workdir = workdir
        self.config = os.path.join(workdir, "sweep.yaml")
        with open(self.config, "w") as fh:
            fh.write(sweep_yaml(SWEEP_N, self.seeds))
        self.warm_config = os.path.join(workdir, "warmup.yaml")
        with open(self.warm_config, "w") as fh:
            fh.write(sweep_yaml(SWEEP_N[:1], self.seeds[:1]))
        self.ops = [Op("rates.json", self._sweep)]

    def _cli(self, config: str) -> int:
        out = os.path.join(self.workdir, "out")
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["sweep", "--config", config, "--out", out, "--workers", "1"])

    def warmup(self) -> None:
        if self._cli(self.warm_config) != 0:
            raise RuntimeError("warm-up sweep failed")

    def _sweep(self, watch) -> OpResult:
        # each cell is timed at its call into des.run
        with timed_calls(des, "run", watch) as cells:
            code = self._cli(self.config)
        with open(os.path.join(self.workdir, "out", "rates.json"), "rb") as fh:
            blob = fh.read()
        payload = json.loads(blob)
        reasons = check_sweep(payload, SWEEP_N, self.seeds)
        cells_planned = len(SWEEP_N) * len(self.seeds)
        if code != 0:
            reasons = [f"qnet sweep exited {code}"] * cells_planned
        events = sum(r["event_count"] for r in payload["rows"])
        wall, ref = [c[0] for c in cells], [c[1] for c in cells]
        return OpResult([1e3 * x for x in wall], [1e3 * x for x in ref], events,
                        sum(wall), sum(ref), cells_planned, len(reasons), blob, reasons)


# ---------------------------------------------------------------------------
# c1_switch: C1 on the switch set projected onto (q2, q7), then C2


C1_A = 0.5
C1_BUDGET = 120.0
C2_PER_PIECE = 40
C2_CALLS = 4
# criterion-3 bounds on the hitting-time/distance ratio per region
REGION_BOUNDS = {"region1": 10.0 / C1_A, "region2": 2.0, "region3": 2.0 / C1_A, "region4": 2.0}
C2_TOL = 1e-12


def settled_switch_q(q2: float, q7: float) -> np.ndarray:
    q = np.zeros(8)
    q[SWITCH.flow1_ingress] = 1.0
    q[SWITCH.flow3_egress] = 1.0
    q[Q2], q[Q7] = q2, q7
    return q


def grid_starts() -> list:
    """The 40 criterion-3 starts, as (q2, q7, region)."""
    edges = [0.02, 0.2, 0.95]
    pts = [(a, b, "region1") for a in edges + [0.5] for b in edges + [0.6]]
    pts += [(a, b, "region2") for a in [1.02, 1.3, 2.9] for b in edges]
    pts += [(a, b, "region3") for a in [0.02, 0.6, 1.5, 2.9] for b in [1.02, 1.6, 2.9]]
    pts += [(0.0, b, "region4") for b in [1.52, 1.8, 2.9]]
    return pts


def region_of(q2: float, q7: float) -> str:
    if q7 > 1.0:
        return "region3"
    return "region1" if q2 < 1.0 else "region2"


def extra_starts(rng: np.random.Generator) -> list:
    """Starts over [0, 3]^2 in (q2, q7), one uniform point per cell of a
    10 x 6 grid, so every seed gives the same mix of regions."""
    starts = []
    for i in range(10):
        for j in range(6):
            a = 0.3 * (i + rng.random())
            b = 0.5 * (j + rng.random())
            starts.append((a, b, region_of(a, b)))
    return starts


def check_c1(report: dict) -> list:
    """Failure reasons of a one-start C1 report."""
    reasons = list(report["violations"])
    label, ratio = report["labels"][0], report["ratios"][0]
    if ratio is not None and ratio > REGION_BOUNDS[label] + 1e-6:
        reasons.append(f"{label} ratio {ratio!r} above {REGION_BOUNDS[label]:g}")
    return reasons


def check_c2(report: dict) -> list:
    """Failure reasons, one per member state off the target rates."""
    target = report["target"]
    return [
        f"member state {i}: rates {rates} deviate from {target}"
        for i, rates in enumerate(report["flow_rates"])
        if max(abs(x - r) for x, r in zip(rates, target)) > C2_TOL
    ]


class C1Switch:
    name = "c1_switch"
    labels = ("c2_states_per_s", "c1_start_ms_p50", "c1_start_ms_p90")

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 2)
        self.spec = qnet.switch_example_spec()
        self.eqset = qnet.switch_equilibrium_set(C1_A)
        self.proj = self.eqset.projected((Q2, Q7))
        # shuffled, so that the part of a round a run ends in is a fair sample
        starts = grid_starts() + extra_starts(rng)
        starts = [starts[i] for i in rng.permutation(len(starts))]
        c2_seeds = [int(x) for x in rng.integers(0, 2**31, C2_CALLS)]
        # the verify_C2 calls are spread evenly over the round
        per_call = len(starts) // C2_CALLS
        self.ops = []
        for i, c2_seed in enumerate(c2_seeds):
            self.ops.append(Op("c2", self._c2_op(c2_seed)))
            self.ops += [Op("c1", self._c1_op(s)) for s in starts[i * per_call:(i + 1) * per_call]]
        self._warm = self._c1_op(starts[0])

    def warmup(self) -> None:
        self._warm(Stopwatch(calibrated=False))

    def _c1_op(self, start):
        q2, q7, label = start
        plan = absorption.SamplePlan(
            points=[absorption.SamplePoint(q=settled_switch_q(q2, q7), label=label)],
            time_budget=C1_BUDGET,
        )

        def run(watch) -> OpResult:
            report, wall, ref = watch(absorption.verify_C1, self.spec, self.proj, 1.0, plan)
            report = report.to_dict()
            reasons = check_c1(report)
            return OpResult([1e3 * wall], [1e3 * ref], 0, 0.0, 0.0, 1, min(len(reasons), 1),
                            _canon(report), reasons)

        return run

    def _c2_op(self, seed: int):
        def run(watch) -> OpResult:
            # each member state is timed at its call into departure_rates_at
            with timed_calls(absorption, "departure_rates_at", watch) as times:
                report = absorption.verify_C2(
                    self.spec, self.eqset, 1.0, FLUID_RATES,
                    per_piece=C2_PER_PIECE, seed=seed,
                ).to_dict()
            states = len(report["flow_rates"])
            reasons = check_c2(report)
            return OpResult([], [], states, sum(t[0] for t in times), sum(t[1] for t in times),
                            states, len(reasons), _canon(report), reasons)

        return run


# ---------------------------------------------------------------------------
# checked_random: randomized valid networks, invariants checked at every event


CHECKED_NETWORKS = 100
CHECKED_EVENTS = 2500   # expected events per network, sets each horizon


def random_network(rng: np.random.Generator):
    """A valid network of the criterion-7 kind: 2-3 stations, 1-3 flows,
    exponential arrivals, exponential/pareto/deterministic service."""
    d = int(rng.integers(2, 4))
    F = int(rng.integers(1, 4))
    kinds = [
        lambda: qnet.DistributionSpec.exponential(1.0 + rng.random()),
        lambda: qnet.DistributionSpec.pareto_paper(0.8 + rng.random()),
        lambda: qnet.DistributionSpec.deterministic(0.4 + 0.4 * rng.random()),
    ]
    paths, arrival, service = [], [], []
    for _ in range(F):
        length = int(rng.integers(1, d + 1))
        paths.append(tuple(int(s) for s in rng.permutation(d)[:length]))
        arrival.append(qnet.DistributionSpec.exponential(0.4 + rng.random()))
        service.append([kinds[int(rng.integers(3))]() for _ in range(length)])
    return qnet.build_network(
        paths, arrival=arrival, service=service,
        threshold_base=float(1.0 + 2.0 * rng.random()),
        hysteresis_gap=float(rng.choice([0.0, 1.0])),
        num_stations=d,
    )


def check_trace(summary: dict) -> list:
    if any(a > e for a, e in zip(summary["admitted"], summary["exogenous"])):
        return [f"admitted {summary['admitted']} above exogenous {summary['exogenous']}"]
    return []


class CheckedRandom:
    name = "checked_random"
    labels = ("checked_events_per_s", "checked_run_ms_p50", "checked_run_ms_p90")

    def __init__(self, seed: int, workdir: str):
        rng = _rng(seed, 3)
        cases = []
        for _ in range(CHECKED_NETWORKS):
            spec = random_network(rng)
            if not qnet.validate(spec).ok:
                raise RuntimeError("generated an invalid network")
            rate = sum(
                spec.arrival_dist[f].rate * (1 + len(spec.flow_paths[f]))
                for f in range(spec.num_flows)
            )
            cases.append((spec, int(rng.integers(1, 12)), int(rng.integers(2**31)),
                          CHECKED_EVENTS / rate))
        self.ops = [Op("trace", self._op(c)) for c in cases]
        self._warm = self.ops[0].run

    def warmup(self) -> None:
        self._warm(Stopwatch(calibrated=False))

    def _op(self, case):
        spec, n, seed, horizon = case

        def run(watch) -> OpResult:
            # qnet.run is des.run; the traced run wraps it in the des module
            trace, wall, ref = watch(des.run, spec, n, seed, horizon, invariant_checks="every")
            summary = {
                "event_count": trace.event_count,
                "exogenous": trace.exogenous.tolist(),
                "admitted": trace.admitted.tolist(),
                "departures": trace.departures.tolist(),
                "flow_depart_rates": trace.flow_depart_rates.tolist(),
            }
            reasons = check_trace(summary)
            return OpResult([1e3 * wall], [1e3 * ref], trace.event_count, wall, ref, 1,
                            min(len(reasons), 1), _canon(summary), reasons)

        return run


WORKLOADS = {w.name: w for w in (SweepSwitch, C1Switch, CheckedRandom)}
