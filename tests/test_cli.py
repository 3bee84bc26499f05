import ast
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import qnet
from qnet.cli import main
from qnet.config import ConfigError, load_config, make_equilibrium_set
from qnet.network import validate

README = Path(__file__).resolve().parent.parent / "README.md"

SWITCH_YAML = """\
version: 1
network:
  preset: switch_example
  threshold_base: 1.0
experiment:
  n_values: [5, 20]
  horizon: 800
  replications: 2
  base_seed: 3
  warmup_frac: 0.2
  target_rates: [0.5, 0.5, 0.5]
simulate:
  n: 10
  horizon: 500
  seed: 1
  sample_count: 50
fluid:
  hbar: 1.0
  horizon: 30
  initial_q: [1, 2.4, 0, 0, 0, 0, 0.3, 1]
verify:
  set: {kind: switch, a: 0.5}
  hbar: 1.0
  target_rates: [0.5, 0.5, 0.5]
  time_budget: 120
  starts:
    - [1, 0.4, 0, 0, 0, 0, 0.7, 1]
    - [1, 1.9, 0, 0, 0, 0, 0.2, 1]
export:
  trace_queues: [1, 6]
  fluid_phase: [1, 6]
"""

SWITCH_PRESET = "version: 1\nnetwork: {preset: switch_example}\n"

TANDEM_YAML = """\
version: 1
network:
  stations: 2
  threshold_base: 1.0
  flows:
    - path: [0, 1]
      weight: 1
      arrival: {exponential: 1.0}
      service: [{exponential: 0.8}, {exponential: 0.5}]
"""


@pytest.fixture
def switch_cfg(tmp_path):
    p = tmp_path / "switch.yaml"
    p.write_text(SWITCH_YAML)
    return p


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestConfig:
    def test_load_switch(self, switch_cfg):
        cfg = load_config(switch_cfg)
        assert cfg.network.num_classes == 8
        assert cfg.experiment.n_values == (5.0, 20.0)

    def test_load_explicit_network(self, tmp_path):
        p = tmp_path / "tandem.yaml"
        p.write_text(TANDEM_YAML)
        cfg = load_config(p)
        assert cfg.network.num_classes == 2
        assert cfg.network.arrival_dist[0].rate == 1.0

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(TANDEM_YAML + "bogus_field: 1\n")
        with pytest.raises(ConfigError, match="unknown fields"):
            load_config(p)

    def test_unknown_nested_field_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(TANDEM_YAML.replace("weight: 1", "weight: 1\n      color: red"))
        with pytest.raises(ConfigError, match="unknown fields"):
            load_config(p)

    def test_wrong_version_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(TANDEM_YAML.replace("version: 1", "version: 99"))
        with pytest.raises(ConfigError, match="version"):
            load_config(p)

    def test_bad_distribution_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(TANDEM_YAML.replace("{exponential: 1.0}", "{weibull: 1.0}"))
        with pytest.raises(ConfigError):
            load_config(p)

    def test_rational_weight(self, tmp_path):
        p = tmp_path / "w.yaml"
        p.write_text(TANDEM_YAML.replace("weight: 1", 'weight: "2/3"'))
        cfg = load_config(p)
        from fractions import Fraction

        assert cfg.network.weights[0] == Fraction(2, 3)

    def test_class_id_reads_integral_float(self, tmp_path):
        # class ids follow the integer rule of every other field: 1.0 reads as 1
        p = tmp_path / "tandem.yaml"
        p.write_text(TANDEM_YAML + "export: {trace_queues: [1.0]}\n")
        (k,) = load_config(p).export["trace_queues"]
        assert k == 1 and type(k) is int

    def test_exponent_floats_load(self, tmp_path):
        # YAML 1.1 reads 1e4 and 1.0e308 as strings; the config reads them as 1.2 floats
        p = tmp_path / "tandem.yaml"
        p.write_text(TANDEM_YAML + "experiment: {n_values: [1e4, 1.0e308], horizon: 1.5e+3,"
                     " seeds: [1], target_rates: [-2E-3]}\n")
        plan = load_config(p).experiment
        assert plan.n_values == (1e4, 1e308) and plan.horizon == 1500.0
        assert plan.target_rates == (-0.002,)

    def test_readme_example_loads(self, tmp_path):
        # the example names every field, so renaming one fails here
        text = README.read_text().split("## Configuration", 1)[1]
        p = tmp_path / "readme.yaml"
        p.write_text(text.split("```yaml\n", 1)[1].split("```", 1)[0])
        cfg = load_config(p)
        assert str(validate(cfg.network)) == "valid"
        assert cfg.simulate["sample_count"] == 200 and cfg.verify["time_budget"] == 100.0

    def test_readme_library_sketch_runs(self):
        # the sketch runs as written, and every line whose comment is a
        # value (offered_load, the row's RateVector, C2's max_deviation)
        # gives that value, so a change to the row layout or a return
        # value that leaves the sketch stale fails here
        text = README.read_text().split("## Library sketch", 1)[1]
        block = text.split("```python\n", 1)[1].split("```", 1)[0]
        ns = {}
        exec(block, ns)
        checked = []
        for line in block.splitlines():
            code, _, comment = line.partition("#")
            try:
                want = ast.literal_eval(comment.split(":", 1)[0].strip())
            except (ValueError, SyntaxError):
                continue
            got = eval(code, ns)
            if isinstance(want, bool):
                assert got is want, line
            else:
                assert list(np.atleast_1d(got)) == pytest.approx(list(np.atleast_1d(want)), abs=1e-12), line
            checked.append(code.strip())
        assert checked == [
            "qnet.offered_load(spec)",
            "rates is rv",
            "qnet.verify_C2(spec, eqset, 1.0, [0.5, 0.5, 0.5]).max_deviation",
        ]

    def test_set_construction(self):
        assert len(make_equilibrium_set({"kind": "switch", "a": 0.5}).pieces) == 2
        assert len(make_equilibrium_set({"kind": "tandem_point"}).pieces) == 1
        with pytest.raises(ConfigError):
            make_equilibrium_set({"kind": "nonsense"})


class TestCli:
    def test_validate_ok(self, switch_cfg, capsys):
        assert main(["validate", "--config", str(switch_cfg)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out
        assert "1.2" in out  # offered load echoed

    def test_validate_bad_config_exit_1(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("version: 1\nnetwork: {preset: nonsense}\n")
        assert main(["validate", "--config", str(p)]) == 1

    def test_simulate_writes_outputs(self, switch_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(switch_cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "trace.json").read_text())
        assert doc["seed"] == 1
        assert len(doc["flow_depart_rates"]) == 3
        assert (out / "trace.csv").exists()

    def test_fluid_writes_trajectory(self, switch_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["fluid", "--config", str(switch_cfg), "--out", str(out)]) == 0
        lines = (out / "fluid.csv").read_text().splitlines()
        assert len(lines) > 2

    def test_verify_c1_and_c2(self, switch_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["verify-c1", "--config", str(switch_cfg), "--out", str(out)]) == 0
        c1 = json.loads((out / "c1.json").read_text())
        assert c1["ok"]
        assert main(["verify-c2", "--config", str(switch_cfg), "--out", str(out)]) == 0
        c2 = json.loads((out / "c2.json").read_text())
        assert c2["max_deviation"] == 0.0

    def test_sweep_and_determinism(self, switch_cfg, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sweep", "--config", str(switch_cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(switch_cfg), "--out", str(out2)]) == 0
        assert sha(out1 / "rates.csv") == sha(out2 / "rates.csv")
        assert sha(out1 / "rates.json") == sha(out2 / "rates.json")

    def test_sweep_seed_keeps_the_seed_count(self, tmp_path):
        # --seed used to replace the seeds by base_seed and the default ten replications
        p = tmp_path / "sweep.yaml"
        p.write_text(TANDEM_YAML + "experiment: {n_values: [5], horizon: 50, seeds: [1, 2]}\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(p), "--seed", "5", "--out", str(out)]) == 0
        rows = json.loads((out / "rates.json").read_text())["rows"]
        assert [r["seed"] for r in rows] == [5, 6]

    def test_sweep_cell_fault_exit_2(self, switch_cfg, tmp_path, monkeypatch, capsys):
        import qnet

        run = qnet.des.run

        def faulty(spec, n, seed, *args, **kw):
            if (n, seed) == (5.0, 4):
                raise RuntimeError("worker fault")
            return run(spec, n, seed, *args, **kw)

        monkeypatch.setattr(qnet.des, "run", faulty)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(switch_cfg), "--out", str(out), "--workers", "1"]) == 2
        assert "cell (n=5.0, seed=4) failed: RuntimeError: worker fault" in capsys.readouterr().out
        rows = json.loads((out / "rates.json").read_text())["rows"]
        assert [r["error"] for r in rows] == [None, "RuntimeError: worker fault", None, None]

    def test_default_event_budget_exceeded_exit_2(self, switch_cfg, tmp_path, monkeypatch, capsys):
        import qnet

        monkeypatch.setattr(qnet.des, "default_event_budget", lambda *args: 10)
        assert main(["simulate", "--config", str(switch_cfg), "--out", str(tmp_path / "sim")]) == 2
        assert "error: exceeded event budget 10 at t=" in capsys.readouterr().err
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(switch_cfg), "--out", str(out)]) == 2
        rows = json.loads((out / "rates.json").read_text())["rows"]
        assert all(r["error"].startswith("exceeded event budget 10 at t=") for r in rows)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_workers_below_one_exit_1(self, switch_cfg, tmp_path, capsys, workers):
        # used to run the sweep serially and exit 0
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(switch_cfg), "--out", str(out), "--workers", workers]) == 1
        assert capsys.readouterr().err == f"error: workers must be at least 1, not {workers}\n"
        assert not out.exists()

    def test_sweep_pool_capped_and_dead_worker_exit_2(self, switch_cfg, tmp_path, monkeypatch, capsys):
        # --workers 5000 used to fork 5000 processes for the plan's 4 cells,
        # and a dead worker ended the sweep in a BrokenProcessPool traceback;
        # each seed is one task, so the pool is no larger than the 2 seeds
        from concurrent.futures import Future, process
        from concurrent.futures.process import BrokenProcessPool

        sizes = []

        class StandIn:  # runs each seed's task at submit; the worker of seed 4 dies
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, task):
                future = Future()
                if task[2] == 4:
                    future.set_exception(BrokenProcessPool("a process died"))
                else:
                    future.set_result(fn(task))
                return future

        # run_sweep looks the pool up in its module when a sweep has workers
        monkeypatch.setattr(process, "ProcessPoolExecutor", StandIn)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(switch_cfg), "--out", str(out), "--workers", "5000"]) == 2
        assert sizes == [2]
        assert "cell (n=20.0, seed=4) failed: BrokenProcessPool: a process died" in capsys.readouterr().out
        rows = json.loads((out / "rates.json").read_text())["rows"]
        assert [r["error"] for r in rows] == [None, "BrokenProcessPool: a process died"] * 2

    def test_export_phase_files(self, switch_cfg, tmp_path):
        out = tmp_path / "exp"
        assert main(["export", "--config", str(switch_cfg), "--out", str(out)]) == 0
        queues = (out / "queues.csv").read_text().splitlines()
        assert queues[0] == "time,q1,q6"
        phase = (out / "phase.csv").read_text().splitlines()
        assert phase[0] == "time,q1,q6"

    def test_export_matches_simulate_and_fluid(self, tmp_path):
        # export reads initial_queues, initial_u and initial_v as simulate and fluid do
        p = tmp_path / "tandem.yaml"
        p.write_text(
            TANDEM_YAML
            + "simulate: {n: 4, horizon: 200, seed: 2, sample_count: 40, initial_queues: [4, 4]}\n"
            + "fluid: {hbar: 1.0, horizon: 20, initial_q: [2.0, 0.5],"
            + " initial_u: [0.7], initial_v: [0.3, 0.0]}\n"
        )
        out = {verb: tmp_path / verb for verb in ("export", "simulate", "fluid")}
        for verb, d in out.items():
            assert main([verb, "--config", str(p), "--out", str(d)]) == 0
        trace = (out["export"] / "trace.csv").read_bytes()
        assert trace == (out["simulate"] / "trace.csv").read_bytes()
        assert trace.splitlines()[1].startswith(b"0.0,4,4,")
        traj = (out["export"] / "fluid.csv").read_bytes()
        assert traj == (out["fluid"] / "fluid.csv").read_bytes()
        assert traj.splitlines()[2].startswith(b"0.3,")  # class 0 gate opens

    @pytest.mark.parametrize(
        "export, message",
        [
            ("{trace_queues: [0, 5]}", "export.trace_queues[1]: expected a class id in [0, 2), not 5"),
            ("{trace_queues: [-1]}", "export.trace_queues[0]: expected a class id in [0, 2), not -1"),
            ("{fluid_phase: [0, 2]}", "export.fluid_phase[1]: expected a class id in [0, 2), not 2"),
            ("{fluid_phase: [0]}", "export.fluid_phase: expected a list of 2"),
        ],
        ids=["trace_queues_too_large", "trace_queues_negative", "fluid_phase_too_large",
             "fluid_phase_one_id"],
    )
    def test_export_class_ids_out_of_range_exit_1(self, tmp_path, capsys, export, message):
        # a bad id used to end in an IndexError after --out was created, and a
        # negative one silently wrapped to another class
        p = tmp_path / "tandem.yaml"
        p.write_text(
            TANDEM_YAML
            + "simulate: {n: 4, horizon: 50, seed: 2}\n"
            + "fluid: {hbar: 1.0, horizon: 5, initial_q: [2.0, 0.5]}\n"
            + f"export: {export}\n"
        )
        out = tmp_path / "out"
        assert main(["export", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_export_run_fault_leaves_no_out(self, tmp_path, capsys):
        # export used to create --out before the run, and left it empty
        p = tmp_path / "tandem.yaml"
        p.write_text(
            TANDEM_YAML
            + "simulate: {n: 4, horizon: 50, seed: 2}\n"
            + "fluid: {hbar: 1.0, horizon: 5, initial_q: [2.0, 0.5]}\n"
        )
        out = tmp_path / "out"
        assert main(["export", "--config", str(p), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, not -1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, extra, message",
        [
            ("validate", "  idle_slots: [3]\n", "network.idle_slots: expected a mapping"),
            ("sweep", "experiment: {n_values: 5, horizon: 50}\n",
             "experiment.n_values: expected a list"),
            ("sweep", "experiment: {n_values: [5], horizon: 50, seeds: 3}\n",
             "experiment.seeds: expected a list"),
            ("simulate", "simulate: {n: 4, horizon: 50, seed: 2, initial_queues: 3}\n",
             "simulate.initial_queues: expected a list"),
            ("fluid", "fluid: {hbar: 1.0, horizon: 5, initial_q: [1, 1], initial_u: 3}\n",
             "fluid.initial_u: expected a list"),
            ("fluid", "fluid: {hbar: 1.0, horizon: 5, initial_q: [1, 1], initial_v: 0.5}\n",
             "fluid.initial_v: expected a list"),
            ("verify-c1", "verify: {set: {kind: tandem_point}, hbar: 1.0, starts: 3}\n",
             "verify.starts: expected a list"),
            ("verify-c1", "verify: {set: {kind: tandem_point}, hbar: 1.0, starts: []}\n",
             "verify.starts: expected a nonempty list"),
            ("verify-c2", "verify: {set: {kind: tandem_point}, hbar: 1.0, target_rates: 0.5}\n",
             "verify.target_rates: expected a list"),
            ("fluid", "fluid: {hbar: [1.0], horizon: 5, initial_q: [1, 1]}\n",
             "fluid.hbar: expected a number"),
            ("simulate", "simulate: {n: [4], horizon: 50, seed: 2}\n",
             "simulate.n: expected a number"),
            ("simulate", "simulate: {n: 4, horizon: 50, seed: 2, sample_count: [3]}\n",
             "simulate.sample_count: expected a number"),
            ("sweep", "experiment: {n_values: [5], horizon: [50]}\n",
             "experiment.horizon: expected a number"),
            # a whole config in place of an extra section
            ("verify-c2", "verify: {set: {kind: tandem_wedge, a: [0.5]}, hbar: 1.0, target_rates: [0.5]}\n",
             "verify.set.a: expected a number"),
            ("validate", "version: 1\nnetwork: {preset: tandem, params: {lam: [1], mu1: 0.8, mu2: 0.5}}\n",
             "network.params.lam: expected a number"),
            ("validate", TANDEM_YAML.replace("flows:", "class_ids: [[0, [0], 0], [0, 1, 1]]\n  flows:"),
             "network.class_ids[0][1]: expected a number"),
            ("validate", TANDEM_YAML.replace("path: [0, 1]", "path: [[0], 1]"),
             "network.flows[0].path[0]: expected a number"),
            ("simulate", "simulate: {n: 4, horizon: 50, seed: 1.7}\n",
             "simulate.seed: expected a nonnegative integer, not 1.7"),
            ("sweep", "experiment: {n_values: [5], horizon: 50, replications: 1.5}\n",
             "experiment.replications: expected an integer, not 1.5"),
            ("verify-c2", "verify: {set: {kind: tandem_point}, hbar: 1.0, target_rates: [0.5], per_piece: 0.5}\n",
             "verify.per_piece: expected a nonnegative integer, not 0.5"),
            # seeds and counts below 0: numpy's unnamed error, a sweep of
            # failed cells, or (per_piece) a check of the centroids alone
            ("simulate", "simulate: {n: 4, horizon: 50, seed: -1}\n",
             "simulate.seed: expected a nonnegative integer, not -1"),
            ("sweep", "experiment: {n_values: [5], horizon: 50, base_seed: -3}\n",
             "experiment.base_seed: expected a nonnegative integer, not -3"),
            ("sweep", "experiment: {n_values: [5], horizon: 50, seeds: [1, -2]}\n",
             "experiment.seeds[1]: expected a nonnegative integer, not -2"),
            ("simulate", "simulate: {n: 4, horizon: 50, seed: 2, initial_queues: [-1, 0]}\n",
             "simulate.initial_queues[0]: expected a nonnegative integer, not -1"),
            ("simulate", "simulate: {n: 4, horizon: 50, sample_count: -5}\n",
             "simulate.sample_count: expected a positive integer, not -5"),
            # 0 samples is no grid: export would write 1000, simulate the final state
            ("export", "simulate: {n: 4, horizon: 50, sample_count: 0}\n",
             "simulate.sample_count: expected a positive integer, not 0"),
            ("verify-c2", "verify: {set: {kind: tandem_point}, hbar: 1.0, target_rates: [0.5], per_piece: -3}\n",
             "verify.per_piece: expected a nonnegative integer, not -3"),
            ("verify-c2", "verify: {set: {kind: switch, a: 2}, hbar: 1.0, target_rates: [0.5]}\n",
             "verify.set.a: a must lie strictly between 0 and 1"),
            ("simulate", "simulate: {n: .nan, horizon: 50}\n",
             "simulate.n: expected a positive number, not nan"),
            ("fluid", "fluid: {hbar: 0, horizon: 5, initial_q: [1, 1]}\n",
             "fluid.hbar: expected a positive number, not 0"),
            ("validate", "version: 1\nnetwork: {preset: tandem,"
             " params: {lam: 1, mu1: 0.8, mu2: 0.5, arrival_kind: exponentail}}\n",
             "network.params.arrival_kind: expected one of exponential, pareto_paper, deterministic,"
             " not 'exponentail'"),
            ("simulate", "simulate: {n: 4, horizon: .inf, seed: 2}\n",
             "simulate.horizon: expected a positive number, not inf"),
            ("sweep", "experiment: {n_values: [5], horizon: .inf}\n",
             "experiment.horizon: expected a positive number, not inf"),
            ("fluid", "fluid: {hbar: 1.0, horizon: .inf, initial_q: [1, 1]}\n",
             "fluid.horizon: expected a positive number, not inf"),
            ("fluid", "fluid: {hbar: .nan, horizon: 5, initial_q: [1, 1]}\n",
             "fluid.hbar: expected a positive number, not nan"),
            # class numbering faults, found by build_network before it indexes
            ("validate", TANDEM_YAML.replace("flows:", "class_ids: [[0, 0, 99], [0, 1, 1]]\n  flows:"),
             "network.class_ids: class id 99 is not in [0, 2)"),
            ("validate", TANDEM_YAML.replace("flows:", "idle_slots: {5: 0}\n  flows:"),
             "network.idle_slots: class id 5 is not in [0, 3)"),
            ("validate", TANDEM_YAML.replace("flows:", "idle_slots: {2: 7}\n  flows:"),
             "network.idle_slots: station 7 of class 2 is not in [0, 2)"),
            ("validate", TANDEM_YAML.replace("flows:", "class_ids: [[0, 0, 0]]\n  flows:"),
             "network.class_ids: (flow, hop) (0, 1) has no class id"),
            # the dict of (flow, hop) -> class id used to keep the last row
            ("validate", TANDEM_YAML.replace("flows:", "class_ids: [[0, 0, 1], [0, 0, 0], [0, 1, 1]]\n  flows:"),
             "network.class_ids: (flow, hop) (0, 0) is given twice"),
            ("validate", TANDEM_YAML.replace("flows:", "class_ids: [[0, 0, 0], [0, 1, 1], [0, 2, 2]]\n  flows:"),
             "network.class_ids: (flow, hop) (0, 2) is not on a path;"
             " network.class_ids: class id 2 is not in [0, 2)"),
            ("validate", TANDEM_YAML.replace("flows:", "class_ids: [[0, 0, 0], [0, 1, 1], [1, 0, 2]]\n  flows:"),
             "network.class_ids: (flow, hop) (1, 0) is not on a path;"
             " network.class_ids: class id 2 is not in [0, 2)"),
            ("validate", TANDEM_YAML.replace("path: [0, 1]", "path: [0, 5]"),
             "network.flows[0].path: station 5 is not in [0, 2)"),
            # faults the network passed at load and validate then reported
            ("validate", TANDEM_YAML.replace("path: [0, 1]", "path: [0, 1, 0]").replace(
                "{exponential: 0.5}]", "{exponential: 0.5}, {exponential: 1.0}]"),
             "network.flows[0].path: revisits a station"),
            ("validate", TANDEM_YAML.replace("weight: 1", "weight: 0"),
             "network.flows[0].weight: expected a positive rational, not 0"),
            ("validate", TANDEM_YAML.replace("arrival: {exponential: 1.0}", "arrival: {exponential: 0}"),
             "network.flows[0].arrival: expected a rate in (0, inf), not 0.0"),
            ("validate", TANDEM_YAML.replace("flows:", "class_ids: [[0, 0, 1], [0, 1, 0]]\n  flows:"),
             "network.class_ids: flow 0 enters at class 1, not 0"),
            # lists with one entry per class (2) or per flow (1) of the tandem
            ("fluid", "fluid: {hbar: 1.0, horizon: 5, initial_q: [1, 1, 1]}\n",
             "fluid.initial_q: expected one entry per class (2), not 3"),
            ("fluid", "fluid: {hbar: 1.0, horizon: 5, initial_q: [1, 1], initial_v: [0.3]}\n",
             "fluid.initial_v: expected one entry per class (2), not 1"),
            ("fluid", "fluid: {hbar: 1.0, horizon: 5, initial_q: [1, 1], initial_u: [0.2, 0.1]}\n",
             "fluid.initial_u: expected one entry per flow (1), not 2"),
            ("simulate", "simulate: {n: 4, horizon: 50, seed: 2, initial_queues: [4]}\n",
             "simulate.initial_queues: expected one entry per class (2), not 1"),
            ("sweep", "experiment: {n_values: [5], horizon: 50, target_rates: [0.5, 0.5]}\n",
             "experiment.target_rates: expected one entry per flow (1), not 2"),
            ("verify-c2", "verify: {set: {kind: tandem_point}, hbar: 1.0, target_rates: [0.5, 0.5]}\n",
             "verify.target_rates: expected one entry per flow (1), not 2"),
            ("verify-c1", "verify: {set: {kind: tandem_point}, hbar: 1.0, starts: [[1, 1], [1]]}\n",
             "verify.starts[1]: expected one entry per class (2), not 1"),
            # a set built for another network, or given a band half-width it has no band for
            ("verify-c1", "verify: {set: {kind: switch}, hbar: 1.0}\n",
             "verify.set: the set has (classes, flows) = (8, 3), the network (2, 1)"),
            ("verify-c1", "version: 1\nnetwork: {preset: switch_example}\n"
             "verify: {set: {kind: tandem_point}, hbar: 1.0}\n",
             "verify.set: the set has (classes, flows) = (2, 1), the network (8, 3)"),
            ("verify-c2", "version: 1\nnetwork: {preset: switch_example}\n"
             "verify: {set: {kind: tandem_segments}, hbar: 1.0, target_rates: [0.5, 0.5, 0.5]}\n",
             "verify.set: the set has (classes, flows) = (2, 1), the network (8, 3)"),
            ("verify-c2", "verify: {set: {kind: tandem_point, a: 7}, hbar: 1.0, target_rates: [0.5]}\n",
             "verify.set.a: the tandem_point set has no band"),
            # seeds given twice over: replications ignored, or one cell run twice
            ("sweep", "experiment: {n_values: [5], horizon: 50, seeds: [4, 4], replications: 7}\n",
             "experiment: give either seeds or base_seed/replications, not both"),
            ("sweep", "experiment: {n_values: [5], horizon: 50, seeds: [1, 2], base_seed: 3}\n",
             "experiment: give either seeds or base_seed/replications, not both"),
            ("sweep", "experiment: {n_values: [5], horizon: 50, seeds: [4, 4]}\n",
             "experiment: seeds must be distinct: 4 repeats"),
            # mass at the switch's idle slots 3 and 5, which no flow feeds
            ("simulate", SWITCH_PRESET + "simulate: {n: 4, horizon: 50, initial_queues: [0, 0, 0, 3, 0, 0, 0, 0]}\n",
             "simulate.initial_queues[3]: expected 0 at an idle slot, not 3"),
            ("fluid", SWITCH_PRESET + "fluid: {hbar: 1.0, horizon: 5, initial_q: [1, 0, 0, 0, 0, 2.0, 0, 1]}\n",
             "fluid.initial_q[5]: expected 0 at an idle slot, not 2.0"),
            ("fluid", SWITCH_PRESET + "fluid: {hbar: 1.0, horizon: 5, initial_q: [1, 0, 0, 0, 0, 0, 0, 1],"
             " initial_v: [0, 0, 0, 0.5, 0, 0, 0, 0]}\n",
             "fluid.initial_v[3]: expected 0 at an idle slot, not 0.5"),
            ("verify-c1", SWITCH_PRESET + "verify: {set: {kind: switch}, hbar: 1.0,"
             " starts: [[1, 0.4, 0, 0, 0, 0, 0.7, 1], [1, 0.4, 0, 1, 0, 0, 0.7, 1]]}\n",
             "verify.starts[1][3]: expected 0 at an idle slot, not 1.0"),
            # a quoted number is a string, whatever it reads as
            ("simulate", 'simulate: {n: "5", horizon: 50}\n', "simulate.n: expected a number"),
            ("simulate", "simulate: {n: 4, horizon: '1e4'}\n", "simulate.horizon: expected a number"),
            # a verb whose section is missing, or lacks what the verb needs
            ("simulate", "", "config has no simulate section"),
            ("fluid", "", "config has no fluid section"),
            ("verify-c1", "", "config has no verify section"),
            ("verify-c1", "verify: {set: {kind: tandem_point}, hbar: 1.0}\n",
             "verify: c1 needs a starts list (initial q vectors)"),
            ("export", "", "export: nothing to export (no simulate or fluid section)"),
            # the shape of the document and of its sections
            ("validate", "version 1\n", "config: expected a mapping"),
            ("simulate", "simulate: {horizon: 50}\n", "simulate: missing fields ['n']"),
            ("validate", TANDEM_YAML.replace("{exponential: 1.0}", "{exponential: 1.0, deterministic: 1.0}"),
             "network.flows[0].arrival: distribution must be a one-key mapping"),
            ("validate", TANDEM_YAML.replace("weight: 1", "weight: 1.5"),
             "network.flows[0].weight: weight must be an integer or 'p/q' string"),
        ],
        ids=["idle_slots_list", "n_values_scalar", "seeds_scalar", "initial_queues_scalar",
             "initial_u_scalar", "initial_v_scalar", "starts_scalar", "starts_empty", "target_rates_scalar",
             "hbar_list", "n_list", "sample_count_list", "horizon_list",
             "set_a_list", "preset_lam_list", "class_ids_entry_list", "path_entry_list",
             "seed_fraction", "replications_fraction", "per_piece_fraction",
             "seed_negative", "base_seed_negative", "seeds_entry_negative", "initial_queues_negative",
             "sample_count_negative", "sample_count_zero",
             "per_piece_negative", "set_a_outside", "n_nan", "hbar_zero",
             "arrival_kind_misspelt", "simulate_horizon_inf", "experiment_horizon_inf",
             "fluid_horizon_inf", "hbar_nan", "class_id_too_large", "idle_id_too_large",
             "idle_station_too_large", "hop_without_class_id", "hop_given_twice",
             "hop_past_path", "flow_past_paths",
             "station_too_large", "path_revisit", "weight_zero", "arrival_rate_zero", "ingress_class",
             "initial_q_length", "initial_v_length", "initial_u_length", "initial_queues_length",
             "experiment_target_rates_length", "verify_target_rates_length", "starts_entry_length",
             "set_switch_on_tandem", "set_tandem_on_switch", "set_tandem_on_switch_c2", "set_a_without_band",
             "seeds_and_replications", "seeds_and_base_seed", "seeds_repeated",
             "initial_queues_idle_slot", "initial_q_idle_slot", "initial_v_idle_slot", "starts_idle_slot",
             "n_quoted", "horizon_quoted_exponent", "no_simulate_section", "no_fluid_section",
             "no_verify_section", "c1_without_starts", "export_nothing",
             "document_not_mapping", "simulate_missing_n", "distribution_two_keys", "weight_float"],
    )
    def test_config_field_shapes_exit_1(self, tmp_path, capsys, verb, extra, message):
        # each of these used to end in an AttributeError or TypeError
        # traceback, in a scalar broadcast to every flow (target_rates), in
        # a quietly degenerate run (seed 1.7 ran as seed 1, n nan never
        # discarded), in a run that never ended (infinite horizons), or in
        # an IndexError or KeyError while the network was built (numbering);
        # the network faults validate used to list as violation: lines now
        # exit 1 from the load, as every other fault does; a list of the
        # wrong length failed without naming its field, or (target_rates)
        # was broadcast against the flow rates and the run exited 0
        p = tmp_path / "tandem.yaml"
        p.write_text(extra if extra.startswith("version") else TANDEM_YAML + extra)
        out = tmp_path / "out"
        assert main([verb, "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_verify_c2_wrong_target_exit_2(self, tmp_path):
        p = tmp_path / "c2.yaml"
        p.write_text(SWITCH_YAML.replace(
            "  target_rates: [0.5, 0.5, 0.5]\n  time_budget",
            "  target_rates: [0.9, 0.5, 0.5]\n  time_budget",
        ))
        out = tmp_path / "out"
        assert main(["verify-c2", "--config", str(p), "--out", str(out)]) == 2
        c2 = json.loads((out / "c2.json").read_text())
        assert c2["max_deviation"] == pytest.approx(0.4) and not c2["ok"]

    def test_verify_c2_without_target_rates_checks_the_fair_rates(self, tmp_path):
        # a network built from its flows, with no preset: C2 compares the
        # member states' rates with network.fair_rates, here the bottleneck
        # rate 0.5 of the tandem (it used to exit 1 without target_rates)
        p = tmp_path / "c2.yaml"
        p.write_text(TANDEM_YAML + "verify: {set: {kind: tandem_point}, hbar: 1.0}\n")
        assert qnet.fair_rates(load_config(p).network) == (0.5,)
        out = tmp_path / "out"
        assert main(["verify-c2", "--config", str(p), "--out", str(out)]) == 0
        c2 = json.loads((out / "c2.json").read_text())
        assert c2["target"] == [0.5] and c2["max_deviation"] == 0.0 and c2["ok"]

    def test_sweep_without_target_rates_compares_with_the_fair_rates(self, tmp_path):
        # the comparison a sweep writes with no target_rates is the one it
        # writes with the fair rates given: the same rates.json, byte for byte
        plan = "experiment: {n_values: [5, 20], horizon: 300, seeds: [3, 4]%s}\n"
        for name, extra in [("fair", ""), ("given", ", target_rates: [0.5]")]:
            (tmp_path / f"{name}.yaml").write_text(TANDEM_YAML + plan % extra)
            assert main(["sweep", "--config", str(tmp_path / f"{name}.yaml"), "--out", str(tmp_path / name)]) == 0
        assert "comparison" in json.loads((tmp_path / "fair" / "rates.json").read_text())
        assert sha(tmp_path / "fair" / "rates.json") == sha(tmp_path / "given" / "rates.json")

    def test_zero_interarrival_exit_1(self, tmp_path):
        # infinite arrival rate: simulate used to loop forever at t=0
        p = tmp_path / "zero.yaml"
        p.write_text(
            TANDEM_YAML.replace("arrival: {exponential: 1.0}", "arrival: {deterministic: 0}")
            + "simulate: {n: 10, horizon: 100}\n"
        )
        assert main(["validate", "--config", str(p)]) == 1
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 1

    def test_negative_lower_threshold_exit_1(self, tmp_path):
        # gap 20 > n*h = 10: discarding would latch on forever
        p = tmp_path / "gap.yaml"
        p.write_text(
            TANDEM_YAML.replace("threshold_base: 1.0", "threshold_base: 1.0\n  hysteresis_gap: 20")
            + "simulate: {n: 10, horizon: 100}\n"
        )
        assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("verb, section", [
        ("simulate", "simulate: {n: 1.0e308, horizon: 100}\n"),
        ("sweep", "experiment: {n_values: [5, 1.0e308], horizon: 100, seeds: [1, 2]}\n"),
    ], ids=["simulate", "sweep"])
    def test_threshold_not_finite_exit_1(self, tmp_path, capsys, verb, section):
        # n*h = 1e308 * 10 overflows: simulate used to end in an OverflowError
        # traceback, and sweep to exit 2 with one OverflowError row per cell
        p = tmp_path / "inf.yaml"
        p.write_text("version: 1\nnetwork: {preset: switch_example, threshold_base: 10}\n" + section)
        out = tmp_path / "out"
        assert main([verb, "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: threshold n*h = inf is not finite at n=1e+308\n"
        assert not out.exists()

    def test_unreadable_or_malformed_config_exit_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = tmp_path / "missing.yaml"
        assert main(["simulate", "--config", str(missing), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")
        bad = tmp_path / "bad.yaml"
        bad.write_text("version: 1\nnetwork: [\n")
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: malformed YAML: ")
        assert not out.exists()

    @pytest.mark.parametrize("text, key, line", [
        ("version: 1\nversion: 1\nnetwork: {preset: switch_example}\n", "version", 2),
        ("version: 1\nnetwork: {preset: switch_example}\n"
         "simulate: {n: 4, horizon: 200, seed: 2, horizon: 5}\n", "horizon", 3),
        (TANDEM_YAML.replace("      weight: 1\n", "      weight: 1\n      weight: 2\n")
         + "simulate: {n: 4, horizon: 200}\n", "weight", 8),
    ], ids=["top_level", "flow_mapping", "flows_entry"])
    def test_duplicate_key_exit_1(self, tmp_path, capsys, text, key, line):
        # PyYAML keeps a repeated key's last value: simulate used to run to
        # t=5 and exit 0, and a second weight replaced the first
        p = tmp_path / "dup.yaml"
        p.write_text(text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}: malformed YAML: found duplicate key {key!r}\n")
        assert f'"{p}", line {line},' in err
        assert not out.exists()

    def test_merged_key_may_be_given_again(self, tmp_path):
        # a key a merge brings in is overridden, as YAML's merge allows
        p = tmp_path / "merge.yaml"
        p.write_text("version: 1\nnetwork: {preset: switch_example}\n"
                     "simulate:\n  <<: {n: 4, horizon: 200, seed: 2}\n  horizon: 5\n")
        assert load_config(p).simulate["horizon"] == 5.0

    def test_missing_section_exit_1(self, tmp_path):
        p = tmp_path / "min.yaml"
        p.write_text(TANDEM_YAML)
        assert main(["sweep", "--config", str(p)]) == 1


# scalar config fields of the tandem and switch presets, each with a pool of
# good small values; a drawn config spoils up to three of them
BAD = [0, -1, 1.5, float("nan"), float("inf"), [1], {"a": 1}, "x", None, True]
GOOD = {
    ("network", "threshold_base"): [1.0, 0.5],
    ("network", "params", "lam"): [1.0, 0.6],
    ("network", "params", "mu1"): [0.8, 1.0],
    ("network", "params", "mu2"): [0.5, 1.0],
    ("network", "params", "arrival_kind"): ["exponential", "pareto_paper", "deterministic"],
    ("simulate", "n"): [4, 2.5],
    ("simulate", "horizon"): [30, 5.0],
    ("simulate", "seed"): [0, 3],
    ("simulate", "warmup_frac"): [0.2, 0],
    ("simulate", "sample_count"): [5, 1],
    ("fluid", "hbar"): [1.0, 0.5],
    ("fluid", "horizon"): [5, 12.5],
    ("experiment", "horizon"): [30, 10.0],
    ("experiment", "replications"): [1, 2],
    ("experiment", "base_seed"): [0, 7],
    ("experiment", "warmup_frac"): [0.2, 0.5],
    ("verify", "hbar"): [1.0, 2],
    ("verify", "per_piece"): [1, 2],
    ("verify", "set", "a"): [0.5, 0.25],
}
SWITCH_ONLY = {("network", "params", k) for k in ("lam", "mu1", "mu2", "arrival_kind")}


@st.composite
def preset_configs(draw):
    switch = draw(st.booleans())
    fields = [f for f in GOOD if not (switch and f in SWITCH_ONLY)]
    values = {f: draw(st.sampled_from(GOOD[f])) for f in fields}
    values.update(draw(st.dictionaries(st.sampled_from(fields), st.sampled_from(BAD), max_size=3)))
    K, F = (8, 3) if switch else (2, 1)
    doc = {
        "version": 1,
        "network": {"preset": "switch_example" if switch else "tandem", "params": {}},
        "simulate": {},
        # the switch's idle slots 3 and 5 hold no fluid
        "fluid": {"initial_q": [0.5, 0.5, 0.5, 0, 0.5, 0, 0.5, 0.5] if switch else [0.5] * K},
        "experiment": {"n_values": [2, 4]},
        "verify": {"set": {"kind": "switch" if switch else "tandem_wedge"}, "target_rates": [0.5] * F},
    }
    for (*path, key), value in values.items():
        node = doc
        for name in path:
            node = node[name]
        node[key] = value
    return yaml.safe_dump(doc)


@settings(max_examples=60, deadline=None)
@given(preset_configs())
def test_config_fields_exit_0_1_or_2(text):
    # any drawn value either runs or fails with an exit code, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "config.yaml"
        p.write_text(text)
        for verb in ("simulate", "fluid", "sweep", "verify-c2"):
            assert main([verb, "--config", str(p), "--out", str(Path(tmp) / verb)]) in (0, 1, 2)


def test_import_loads_no_process_pool():
    # run_sweep imports the pool only when a sweep has workers, so that
    # importing qnet and its CLI stays free of multiprocessing
    src = str(Path(qnet.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, qnet, qnet.cli; "
             "print([m for m in ('multiprocessing', 'logging', 'concurrent.futures') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
