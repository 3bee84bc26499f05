import hashlib

import numpy as np
import pytest

import qnet
from qnet.des import EmptyWindowError
from qnet.experiments import (
    ExperimentPlan,
    compare_to_fluid,
    export_rate_table_csv,
    export_rate_table_json,
    export_trace_csv,
    export_trajectory_csv,
    run_sweep,
)
from qnet.network import switch_example_spec, tandem_spec


def small_plan(**kw):
    defaults = dict(n_values=(5.0, 20.0), horizon=500.0, seeds=(7, 8))
    defaults.update(kw)
    return ExperimentPlan(**defaults)


def sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestPlanValidation:
    def test_valid(self):
        small_plan().validate()

    def test_nonincreasing_n_rejected(self):
        with pytest.raises(ValueError):
            small_plan(n_values=(20.0, 5.0)).validate()

    def test_duplicate_n_rejected(self):
        with pytest.raises(ValueError):
            small_plan(n_values=(5.0, 5.0)).validate()

    @pytest.mark.parametrize("n_values", [(np.nan,), (5.0, np.inf), (np.inf,)], ids=["nan", "5-inf", "inf"])
    def test_n_not_finite_rejected(self, n_values):
        # (nan,) used to pass, and every cell then failed on its own
        with pytest.raises(ValueError, match="n_values must be positive, finite and strictly increasing"):
            small_plan(n_values=n_values).validate()

    def test_bad_warmup_rejected(self):
        with pytest.raises(ValueError):
            small_plan(warmup_frac=1.0).validate()

    @pytest.mark.parametrize("plan", [{"seeds": (-3, -2)}, {"seeds": (1, -2)}])
    def test_negative_seed_rejected(self, plan):
        with pytest.raises(ValueError, match="seeds must be nonnegative"):
            small_plan(**plan).validate()

    @pytest.mark.parametrize("seeds, named", [
        ((1.2, 1.7), "1.2"), ((3, 2.5), "2.5"), ((np.float64(4.5),), "4.5"), ((1, np.nan), "nan"), ((np.inf,), "inf"),
    ])
    def test_non_integral_seed_rejected(self, seeds, named):
        # int(seed) used to run seed 1 twice for seeds (1.2, 1.7)
        with pytest.raises(ValueError, match=f"seeds must be integers, not {named}$"):
            small_plan(seeds=seeds).validate()

    def test_integral_seeds_of_any_type_pass(self):
        small_plan(seeds=(np.int64(3), np.int32(4), 5.0, np.uint8(6))).validate()

    def test_zero_horizon_is_empty_window(self):
        with pytest.raises(EmptyWindowError):
            run_sweep(tandem_spec(1.0, 0.8, 0.5), small_plan(horizon=0.0))

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_horizon_not_finite_is_empty_window(self, horizon):
        with pytest.raises(EmptyWindowError):
            run_sweep(tandem_spec(1.0, 0.8, 0.5), small_plan(horizon=horizon))


class TestRunSweep:
    def test_table_shape_and_keys(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        table = run_sweep(spec, small_plan())
        assert len(table.rows) == 4
        assert [(r.n, r.seed) for r in table.rows] == [
            (5.0, 7), (5.0, 8), (20.0, 7), (20.0, 8),
        ]
        for r in table.rows:
            assert r.error is None
            assert 0.0 <= r.flow_rates[0] <= 1.0 + 1e-9  # thinning bound

    def test_deterministic(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        t1 = run_sweep(spec, small_plan())
        t2 = run_sweep(spec, small_plan())
        assert [r.flow_rates for r in t1.rows] == [r.flow_rates for r in t2.rows]

    def test_tandem_rate_approaches_bottleneck(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        plan = ExperimentPlan(n_values=(200.0,), horizon=2e4, seeds=(1, 2))
        table = run_sweep(spec, plan)
        for r in table.rows:
            assert r.flow_rates[0] == pytest.approx(0.5, rel=0.03)

    def test_negative_lower_threshold_rejected_before_any_cell(self, monkeypatch):
        spec = qnet.build_network(
            [(0, 1)],
            arrival=[qnet.DistributionSpec.exponential(1.0)],
            service=[[qnet.DistributionSpec.exponential(0.8),
                      qnet.DistributionSpec.exponential(0.5)]],
            hysteresis_gap=10.0,
        )
        cells = []
        monkeypatch.setattr(qnet.des, "run", lambda *a, **kw: cells.append(a))
        with pytest.raises(ValueError, match="lower threshold"):
            run_sweep(spec, small_plan(n_values=(5.0, 20.0)))
        assert cells == []

    def test_threshold_not_finite_rejected_before_any_cell(self, monkeypatch):
        # n*h = 1e308 * 10 overflows: every cell used to fail with OverflowError
        cells = []
        monkeypatch.setattr(qnet.des, "run", lambda *a, **kw: cells.append(a))
        with pytest.raises(ValueError, match="n\\*h = inf is not finite"):
            run_sweep(switch_example_spec(10.0), small_plan(n_values=(5.0, 1e308)))
        assert cells == []

    def test_unexpected_cell_error_recorded_on_its_row(self, monkeypatch):
        spec = tandem_spec(1.0, 0.8, 0.5)
        clean = run_sweep(spec, small_plan(), workers=1)
        run = qnet.des.run

        def faulty(spec_, n, seed, *args, **kw):
            if (n, seed) == (20.0, 7):
                raise RuntimeError("worker fault")
            return run(spec_, n, seed, *args, **kw)

        monkeypatch.setattr(qnet.des, "run", faulty)
        table = run_sweep(spec, small_plan(), workers=1)
        assert [r.error for r in table.rows] == [None, None, "RuntimeError: worker fault", None]
        assert table.rows[2].flow_rates == ()
        for got, want in zip(table.rows, clean.rows):
            if got.error is None:
                assert got == want

    def test_parallel_matches_serial(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        serial = run_sweep(spec, small_plan(), workers=1)
        parallel = run_sweep(spec, small_plan(), workers=2)
        assert [r.flow_rates for r in serial.rows] == [r.flow_rates for r in parallel.rows]


class TestCompare:
    def test_trend_and_values(self):
        spec = switch_example_spec()
        plan = ExperimentPlan(n_values=(5.0, 50.0), horizon=4000.0,
                              seeds=(0, 1, 2))
        table = run_sweep(spec, plan)
        report = compare_to_fluid(table, [0.5, 0.5, 0.5])
        assert report.n_values == (5.0, 50.0)
        assert report.nonincreasing is True
        assert report.mean_deviation[1] < report.mean_deviation[0]

    def test_single_n_trend_undefined(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        table = run_sweep(spec, small_plan(n_values=(5.0,)))
        report = compare_to_fluid(table, [0.5])
        assert report.nonincreasing is None
        assert len(report.mean_deviation) == 1

    def test_exact_target_gives_zero(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        table = run_sweep(spec, small_plan(n_values=(5.0,), seeds=(7,)))
        observed = table.rows[0].flow_rates
        report = compare_to_fluid(table, observed)
        assert report.mean_deviation[0] == 0.0

    def test_wrong_length_target_rejected(self):
        # a two-entry target on the one-flow tandem would broadcast
        table = run_sweep(tandem_spec(1.0, 0.8, 0.5), small_plan(n_values=(5.0,), seeds=(7,)))
        with pytest.raises(ValueError, match=r"^expected one target rate per flow \(1\), not 2$"):
            compare_to_fluid(table, [0.5, 0.5])

    def test_empty_table_rejected(self):
        from qnet.experiments import RateTable

        with pytest.raises(ValueError):
            compare_to_fluid(RateTable(num_flows=1), [0.5])


class TestExport:
    def test_rate_table_csv_stable(self, tmp_path):
        spec = tandem_spec(1.0, 0.8, 0.5)
        table = run_sweep(spec, small_plan())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_rate_table_csv(table, p1)
        export_rate_table_csv(run_sweep(spec, small_plan()), p2)
        assert sha(p1) == sha(p2)

    def test_rate_table_json(self, tmp_path):
        spec = tandem_spec(1.0, 0.8, 0.5)
        table = run_sweep(spec, small_plan())
        path = tmp_path / "rates.json"
        export_rate_table_json(table, path, target_rates=[0.5])
        import json

        doc = json.loads(path.read_text())
        assert len(doc["rows"]) == 4
        assert "comparison" in doc
        assert "wall" not in path.read_text()  # timings never serialized

    def test_rate_table_json_strict_with_failed_n(self, tmp_path):
        # every cell at n=10 failed: its deviations used to be written as bare NaN
        import json
        from qnet.experiments import RateRow, RateTable

        table = RateTable(num_flows=1, rows=[
            RateRow(n=5.0, seed=0, flow_rates=(0.4,), admit_rates=(0.6,), event_count=9),
            RateRow(n=10.0, seed=0, flow_rates=(), admit_rates=(), event_count=0, error="boom"),
        ])
        path = tmp_path / "rates.json"
        export_rate_table_json(table, path, target_rates=[0.5])

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        comparison = json.loads(path.read_text(), parse_constant=reject)["comparison"]
        assert comparison["mean_deviation"] == [pytest.approx(0.1), None]
        assert comparison["max_deviation"][1] is None and comparison["nonincreasing"] is False

    def test_empty_table_header_only(self, tmp_path):
        from qnet.experiments import RateTable

        path = tmp_path / "empty.csv"
        export_rate_table_csv(RateTable(num_flows=2), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("n,seed,rate0,rate1")

    def test_trace_csv_columns(self, tmp_path):
        spec = tandem_spec(1.0, 0.8, 0.5)
        trace = qnet.run(spec, 5, seed=0, horizon=100.0,
                         sample_times=np.linspace(0, 100.0, 11))
        path = tmp_path / "trace.csv"
        export_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,q0,q1,d0,d1,admitted0"
        assert len(lines) == 12

    def test_trajectory_csv(self, tmp_path):
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = qnet.integrate(qnet.FluidState.initial(spec, [2.0, 0.0], 1.0), spec, 20.0)
        path = tmp_path / "traj.csv"
        export_trajectory_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("time,q0,q1,admit_rate0")
        assert len(lines) == len(traj.times) + 1

    def test_io_error_carries_path(self, tmp_path):
        spec = tandem_spec(1.0, 0.8, 0.5)
        table = run_sweep(spec, small_plan(n_values=(5.0,), seeds=(7,)))
        bad = tmp_path / "missing_dir" / "rates.csv"
        with pytest.raises(OSError, match="rates.csv"):
            export_rate_table_csv(table, bad)
