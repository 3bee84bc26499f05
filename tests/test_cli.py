import hashlib
import json

import pytest

from qnet.cli import main
from qnet.config import ConfigError, load_config, make_equilibrium_set

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
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


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
            ("{trace_queues: [0, 5]}", "export.trace_queues: class id 5 is not in [0, 2)"),
            ("{trace_queues: [-1]}", "export.trace_queues: class id -1 is not in [0, 2)"),
            ("{fluid_phase: [0, 2]}", "export.fluid_phase: class id 2 is not in [0, 2)"),
            ("{fluid_phase: [0]}", "export.fluid_phase: expected a list of 2 class ids"),
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
        ],
        ids=["idle_slots_list", "n_values_scalar", "seeds_scalar", "initial_queues_scalar",
             "initial_u_scalar", "initial_v_scalar", "starts_scalar", "target_rates_scalar",
             "hbar_list", "n_list", "sample_count_list", "horizon_list"],
    )
    def test_config_field_shapes_exit_1(self, tmp_path, capsys, verb, extra, message):
        # each of these used to end in an AttributeError or TypeError
        # traceback, or (target_rates) in a scalar broadcast to every flow
        p = tmp_path / "tandem.yaml"
        p.write_text(TANDEM_YAML + extra)
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

    def test_missing_section_exit_1(self, tmp_path):
        p = tmp_path / "min.yaml"
        p.write_text(TANDEM_YAML)
        assert main(["sweep", "--config", str(p)]) == 1
