"""Command-line harness.

Verbs: validate, simulate, fluid, verify-c1, verify-c2, sweep, export.
Every verb takes --config (YAML, see config.py), --seed (overrides the
config where it applies) and --out (output directory).  Exit codes:
0 success, 1 validation/configuration failure (a ValueError from the
library counts as one), 2 runtime budget or I/O failure, or a verify-c1 /
verify-c2 check that does not hold.

``_simulate`` and ``_integrate`` read the ``simulate`` and ``fluid``
sections for their own verbs and for ``export``, which writes the same
trace.csv and fluid.csv plus queues.csv and phase.csv.  Every result file
goes through ``experiments.write_csv`` or ``experiments.write_json``.
Every verb loads its config with ``config.load_config``: the sections
arrive checked, converted and with their defaults filled in, and the
network was checked for every fault by ``network.build_network``, so
this module reads them as they are.  ``validate`` prints the network's
warnings and its offered load.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import absorption, des, experiments, fluid
from .config import ConfigError, load_config
from .network import offered_load, validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    print(validate(cfg.network))
    print("offered load per station:", " ".join(repr(float(x)) for x in offered_load(cfg.network)))
    return EXIT_OK


def _simulate(cfg, args, sample_count=None):
    """Run the ``simulate`` section: n, horizon, seed (``--seed`` wins),
    warmup_frac and initial_queues, sampled at the section's sample_count
    points or, when it gives none, at the ``sample_count`` points the
    caller asks for.  The run has ``des.default_event_budget``; exceeding
    it exits 2."""
    if cfg.simulate is None:
        raise ConfigError("config has no simulate section")
    sim = cfg.simulate
    seed = args.seed if args.seed is not None else sim["seed"]
    horizon = sim["horizon"]
    count = sim["sample_count"] or sample_count
    return des.run(
        cfg.network, sim["n"], seed, horizon,
        warmup_frac=sim["warmup_frac"],
        initial_queues=sim["initial_queues"],
        sample_times=np.linspace(0.0, horizon, count) if count else None,
    )


def _integrate(cfg):
    """Integrate the ``fluid`` section from initial_q, hbar and the
    optional residual clocks initial_u and gates initial_v."""
    if cfg.fluid is None:
        raise ConfigError("config has no fluid section")
    node = cfg.fluid
    state = fluid.FluidState.initial(
        cfg.network, node["initial_q"], node["hbar"], u=node["initial_u"], v=node["initial_v"]
    )
    return fluid.integrate(state, cfg.network, node["horizon"])


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    trace = _simulate(cfg, args)
    out = _outdir(args)
    experiments.export_trace_csv(trace, os.path.join(out, "trace.csv"))
    experiments.export_trace_json(trace, os.path.join(out, "trace.json"))
    rates = " ".join(repr(float(x)) for x in trace.flow_depart_rates)
    print(f"simulated to t={trace.horizon} seed={trace.seed}: flow rates {rates}")
    return EXIT_OK


def cmd_fluid(args) -> int:
    cfg = load_config(args.config)
    traj = _integrate(cfg)
    out = _outdir(args)
    experiments.export_trajectory_csv(traj, os.path.join(out, "fluid.csv"))
    flow_rates = traj.rows[-1][4].flow_depart   # the last row, at the horizon
    print(
        f"integrated {len(traj.rows)} breakpoints to t={traj.horizon}; "
        f"absorbed_at={traj.absorbed_at}; final flow rates "
        + " ".join(repr(float(x)) for x in flow_rates)
    )
    return EXIT_OK


def _verify_common(args):
    cfg = load_config(args.config)
    if cfg.verify is None:
        raise ConfigError("config has no verify section")
    return cfg, cfg.verify


def cmd_verify_c1(args) -> int:
    cfg, node = _verify_common(args)
    if node["starts"] is None:
        raise ConfigError("verify: c1 needs a starts list (initial q vectors)")
    points = [absorption.SamplePoint(q=q, label=f"start{i}") for i, q in enumerate(node["starts"])]
    plan = absorption.SamplePlan(points=points, time_budget=node["time_budget"])
    report = absorption.verify_C1(cfg.network, node["set"], node["hbar"], plan)
    out = _outdir(args)
    experiments.write_json(os.path.join(out, "c1.json"), report.to_dict())
    print(f"samples={len(points)} max_ratio={report.max_ratio!r} ok={report.ok}")
    for v in report.violations:
        print("violation:", v)
    return EXIT_OK if report.ok else EXIT_RUNTIME


def cmd_verify_c2(args) -> int:
    cfg, node = _verify_common(args)
    if node["target_rates"] is None:
        raise ConfigError("verify: c2 needs target_rates")
    report = absorption.verify_C2(
        cfg.network, node["set"], node["hbar"], node["target_rates"],
        per_piece=node["per_piece"], seed=args.seed or 0,
    )
    out = _outdir(args)
    experiments.write_json(os.path.join(out, "c2.json"), report.to_dict())
    print(f"max deviation from target rates: {report.max_deviation!r} ok={report.ok}")
    return EXIT_OK if report.ok else EXIT_RUNTIME


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.experiment is None:
        raise ConfigError("config has no experiment section")
    plan = cfg.experiment
    if args.seed is not None:
        plan.seeds = tuple(range(args.seed, args.seed + len(plan.seeds)))
    table = experiments.run_sweep(cfg.network, plan, workers=args.workers)
    out = _outdir(args)
    experiments.export_rate_table_csv(table, os.path.join(out, "rates.csv"))
    experiments.export_rate_table_json(
        table, os.path.join(out, "rates.json"), target_rates=plan.target_rates
    )
    for n in plan.n_values:
        rates = table.rates_for(n)
        if len(rates):
            mean = " ".join(repr(float(x)) for x in rates.mean(axis=0))
            print(f"n={n}: mean flow rates {mean} over {len(rates)} seeds")
        else:
            print(f"n={n}: all cells failed")
    errors = [r for r in table.rows if r.error]
    for r in errors:
        print(f"cell (n={r.n}, seed={r.seed}) failed: {r.error}")
    return EXIT_RUNTIME if errors else EXIT_OK


def cmd_export(args) -> int:
    cfg = load_config(args.config)
    if cfg.simulate is None and cfg.fluid is None:
        raise ConfigError("export: nothing to export (no simulate or fluid section)")
    trace = None if cfg.simulate is None else _simulate(cfg, args, sample_count=1000)
    traj = None if cfg.fluid is None else _integrate(cfg)
    out = _outdir(args)
    wrote = []

    def path(name):
        wrote.append(os.path.join(out, name))
        return wrote[-1]

    if trace is not None:
        queues = cfg.export["trace_queues"]
        if queues:
            rows = [
                [t, *(int(trace.sample_q[i][k]) for k in queues)]
                for i, t in enumerate(trace.sample_times)
            ]
            experiments.write_csv(path("queues.csv"), ["time"] + [f"q{k}" for k in queues], rows)
        experiments.export_trace_csv(trace, path("trace.csv"))
    if traj is not None:
        pair = cfg.export["fluid_phase"]
        if pair:
            i, j = pair
            rows = [[t, q[i], q[j]] for t, q, *_ in traj.rows]
            experiments.write_csv(path("phase.csv"), ["time", f"q{i}", f"q{j}"], rows)
        experiments.export_trajectory_csv(traj, path("fluid.csv"))
    for p in wrote:
        print("wrote", p)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnet",
        description="Simulate and analyze multiclass queueing networks with ingress discarding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in [
        ("validate", cmd_validate),
        ("simulate", cmd_simulate),
        ("fluid", cmd_fluid),
        ("verify-c1", cmd_verify_c1),
        ("verify-c2", cmd_verify_c2),
        ("sweep", cmd_sweep),
        ("export", cmd_export),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")
        if name == "sweep":
            p.add_argument("--workers", type=int, default=1)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (des.SimulationError, fluid.FluidRateError, fluid.ZenoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
