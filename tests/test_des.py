import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnet
from qnet.des import (
    EmptyWindowError,
    EventBudgetExceeded,
    InvariantViolation,
    Simulation,
    run,
    scaled_trajectory,
)
from qnet.distributions import DistributionSpec, RenewalStream
from qnet.network import build_network, switch_example_spec, tandem_spec, validate

EXP1 = DistributionSpec.exponential(1.0)
NEVER = DistributionSpec.deterministic(1e9)  # effectively no events


def single_queue_spec(h=5.0):
    # one flow, one station; deterministic arrivals each 1.0, service so slow
    # nothing departs within the test horizon
    return build_network(
        [(0,)],
        arrival=[DistributionSpec.deterministic(1.0)],
        service=[[NEVER]],
        threshold_base=h,
    )


def test_admission_until_threshold_then_discard():
    spec = single_queue_spec(h=5.0)
    trace = run(spec, n=1, seed=0, horizon=8.5, invariant_checks="every")
    # arrivals at t=1..8; the 5th fills the queue to the threshold and is
    # itself admitted; 6..8 are discarded
    assert trace.exogenous[0] == 8
    assert trace.admitted[0] == 5
    assert trace.q_final[0] == 5
    assert trace.flags_final[0] == 1


def test_flag_set_exactly_at_threshold():
    spec = single_queue_spec(h=5.0)
    sim = Simulation(spec, n=1, seed=0)
    sim.run(4.5, invariant_checks="every")
    assert sim.q[0] == 4 and sim.flags[0] == 0


def test_second_queue_flag_blocks_admission():
    # flow through two stations; the downstream queue starts at the
    # threshold, so its flag alone must discard new arrivals
    spec = build_network(
        [(0, 1)],
        arrival=[DistributionSpec.deterministic(1.0)],
        service=[[NEVER, NEVER]],
        threshold_base=3.0,
    )
    trace = run(spec, n=1, seed=0, horizon=2.5, initial_queues=[0, 3],
                invariant_checks="every")
    assert trace.flags_final[1] == 1
    assert trace.exogenous[0] == 2
    assert trace.admitted[0] == 0


def test_hysteresis_gap_keeps_flag_on():
    # gap 2: flag turns on at 5, must stay on until the queue drains to 3
    spec = build_network(
        [(0,)],
        arrival=[NEVER],
        service=[[DistributionSpec.deterministic(1.0)]],
        threshold_base=5.0,
        hysteresis_gap=2.0,
    )
    sim = Simulation(spec, n=1, seed=0, initial_queues=[5])
    assert sim.flags[0] == 1
    sim.run(1.5, invariant_checks="every")   # one departure: q=4
    assert sim.q[0] == 4 and sim.flags[0] == 1
    sim2 = Simulation(spec, n=1, seed=0, initial_queues=[5])
    sim2.run(2.5, invariant_checks="every")  # two departures: q=3 -> off
    assert sim2.q[0] == 3 and sim2.flags[0] == 0


def tandem_with_gap(gap):
    return build_network(
        [(0, 1)],
        arrival=[EXP1],
        service=[[DistributionSpec.exponential(0.8), DistributionSpec.exponential(0.5)]],
        hysteresis_gap=gap,
    )


def test_gap_above_threshold_rejected():
    # n*h = 10 < gap: a flag that switched on could never switch off again
    with pytest.raises(ValueError, match="lower threshold"):
        Simulation(tandem_with_gap(20.0), n=10, seed=0)


def test_gap_equal_to_threshold_runs():
    # lower threshold exactly 0: the flag clears once the queue empties
    trace = run(tandem_with_gap(10.0), n=10, seed=0, horizon=2000.0)
    assert trace.flow_depart_rates[0] > 0.0


def two_class_station(weights=(1, 1), q0=(40, 40)):
    spec = build_network(
        [(0,), (0,)],
        arrival=[NEVER, NEVER],
        service=[[DistributionSpec.deterministic(1.0)],
                 [DistributionSpec.deterministic(1.0)]],
        weights=list(weights),
        threshold_base=1000.0,
    )
    return spec, list(q0)


def test_round_robin_alternates():
    spec, q0 = two_class_station()
    trace = run(spec, n=1, seed=0, horizon=20.5, initial_queues=q0,
                invariant_checks="every")
    # both queues backlogged throughout: departures alternate, |D0 - D1| <= 1
    assert abs(int(trace.departures[0]) - int(trace.departures[1])) <= 1
    assert trace.departures.sum() == 20


def test_weighted_cycle_respects_weights():
    spec, q0 = two_class_station(weights=(2, 1))
    trace = run(spec, n=1, seed=0, horizon=30.5, initial_queues=q0,
                invariant_checks="every")
    assert trace.departures[0] == pytest.approx(2 * trace.departures[1], abs=2)


def test_fairness_bound_holds_throughout():
    # c = 1 for the cyclic schedule: check at every sample point
    spec, q0 = two_class_station(weights=(2, 1))
    times = np.arange(0.25, 60.0, 0.25)
    trace = run(spec, n=1, seed=0, horizon=60.0, initial_queues=q0,
                sample_times=times)
    d = trace.sample_d.astype(float)
    imbalance = np.abs(d[:, 0] / 2.0 - d[:, 1] / 1.0)
    assert imbalance.max() <= 1.0 + 1e-12


def test_work_conservation_skips_empty_queue():
    spec, _ = two_class_station()
    trace = run(spec, n=1, seed=0, horizon=10.5, initial_queues=[10, 0],
                invariant_checks="every")
    assert trace.departures[0] == 10
    assert trace.departures[1] == 0
    assert trace.idle_time[0] == pytest.approx(0.5, abs=1e-9)


def test_tandem_rate_approaches_bottleneck():
    # min(lam, mu1, mu2) = 0.5; large thresholds make discarding rare
    spec = tandem_spec(1.0, 0.8, 0.5)
    trace = run(spec, n=500, seed=42, horizon=1e5, invariant_checks="sparse")
    assert trace.flow_depart_rates[0] == pytest.approx(0.5, rel=0.02)


def test_determinism_bitwise():
    spec = switch_example_spec()
    t1 = run(spec, 10, seed=9, horizon=2000.0)
    t2 = run(spec, 10, seed=9, horizon=2000.0)
    assert np.array_equal(t1.departures, t2.departures)
    assert np.array_equal(t1.exogenous, t2.exogenous)
    assert t1.flow_depart_rates.tolist() == t2.flow_depart_rates.tolist()
    assert t1.event_count == t2.event_count


def test_thinning_bound():
    spec = switch_example_spec()
    trace = run(spec, 5, seed=3, horizon=3000.0, invariant_checks="sparse")
    assert (trace.admitted <= trace.exogenous).all()


def test_default_event_budget():
    from qnet.des import default_event_budget

    spec = tandem_spec(1.0, 0.8, 0.5)
    # 10 * 200 * 1.0 * (1 + 2), plus 4 jobs leaving both hops and 4 one
    assert default_event_budget(spec, 200.0, [4, 4]) == 6000 + 12 + 1000
    assert default_event_budget(spec, 200.0) == 7000
    # a tenth of the budget, less its margins, bounds a run's actual count
    trace = run(spec, 10, seed=3, horizon=1000.0, initial_queues=[4, 4])
    assert trace.event_count <= (default_event_budget(spec, 1000.0, [4, 4]) - 1000) / 10


def test_run_without_budget_has_the_default(monkeypatch):
    # a run given no budget used to be unbounded; the default is resolved in
    # Simulation.run through the module global, and the error prints it
    monkeypatch.setattr(qnet.des, "default_event_budget", lambda *args: 10)
    with pytest.raises(EventBudgetExceeded, match="exceeded event budget 10 at t="):
        run(tandem_spec(1.0, 0.8, 0.5), 10, seed=0, horizon=1e3)


@pytest.mark.parametrize("queues", [[1.7, 0.2], [np.inf, 0], [np.nan, 0]], ids=["fraction", "inf", "nan"])
def test_initial_queues_not_nonnegative_integers_rejected(queues):
    # a fraction used to be truncated ([1.7, 0.2] started from [1, 0]) and
    # an inf entry ended in an OverflowError
    with pytest.raises(ValueError, match="initial_queues must be nonnegative integers, one per class"):
        Simulation(tandem_spec(1.0, 0.8, 0.5), 5, 1, initial_queues=queues)


def test_empty_window_rejected():
    spec = tandem_spec(1.0, 0.8, 0.5)
    with pytest.raises(EmptyWindowError):
        run(spec, 10, seed=0, horizon=0.0)


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_horizon_not_finite_rejected(horizon):
    # an infinite horizon used to run until the event budget of sys.maxsize
    spec = tandem_spec(1.0, 0.8, 0.5)
    with pytest.raises(EmptyWindowError):
        run(spec, 10, seed=0, horizon=horizon)


@pytest.mark.parametrize("n", [np.inf, np.nan])
def test_scale_not_finite_rejected(n):
    # a nan n gave nan thresholds, so nothing was ever discarded
    with pytest.raises(ValueError, match="positive and finite"):
        Simulation(tandem_spec(1.0, 0.8, 0.5), n, seed=0)


def test_scaled_trajectory_identity_at_n_1():
    spec = tandem_spec(1.0, 0.8, 0.5)
    times = np.linspace(0.0, 50.0, 26)
    trace = run(spec, 1000, seed=5, horizon=50.0, sample_times=times)
    path = scaled_trajectory(trace, 1.0)
    assert np.array_equal(path.q, trace.sample_q)
    assert np.array_equal(path.times, times)


def test_scaled_trajectory_zero_queues():
    spec = build_network(
        [(0,)], arrival=[NEVER], service=[[EXP1]], threshold_base=1.0
    )
    times = np.linspace(0.0, 10.0, 11)
    trace = run(spec, 10, seed=0, horizon=10.0, sample_times=times)
    assert not scaled_trajectory(trace, 10).q.any()


def test_scaled_trajectory_requires_samples():
    spec = tandem_spec(1.0, 0.8, 0.5)
    trace = run(spec, 10, seed=0, horizon=100.0)
    with pytest.raises(qnet.des.SimulationError):
        scaled_trajectory(trace, 10)


def test_scaled_paths_converge_to_fluid():
    # sup-distance to the fluid path shrinks from n=10 to n=100 (fixed seed)
    spec = tandem_spec(1.0, 0.8, 0.5)
    q0 = np.array([2.0, 0.5])
    grid = np.linspace(0.0, 5.0, 101)
    traj = qnet.integrate(qnet.FluidState.initial(spec, q0, 1.0), spec, 5.0)
    fluid_q = np.array([traj.q_at(t) for t in grid])
    sups = []
    for n in (10, 100):
        trace = run(
            spec, n, seed=1234, horizon=5.0 * n,
            initial_queues=(q0 * n).astype(int), sample_times=n * grid,
        )
        sups.append(np.abs(scaled_trajectory(trace, n).q - fluid_q).sum(axis=1).max())
    assert sups[1] < sups[0]


@st.composite
def sim_cases(draw):
    d = draw(st.integers(2, 3))
    F = draw(st.integers(1, 3))
    paths, arrival, service = [], [], []
    for _ in range(F):
        length = draw(st.integers(1, d))
        perm = draw(st.permutations(range(d)))
        paths.append(tuple(perm[:length]))
        arrival.append(DistributionSpec.exponential(draw(st.floats(0.3, 1.5))))
        service.append(
            [
                draw(
                    st.sampled_from(
                        [
                            DistributionSpec.exponential(1.2),
                            DistributionSpec.pareto_paper(1.0),
                            DistributionSpec.deterministic(0.7),
                        ]
                    )
                )
                for _ in range(length)
            ]
        )
    spec = build_network(
        paths,
        arrival=arrival,
        service=service,
        threshold_base=draw(st.floats(1.0, 4.0)),
        hysteresis_gap=draw(st.sampled_from([0.0, 1.0])),
        num_stations=d,
    )
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31))
    return spec, n, seed


@settings(max_examples=25, deadline=None)
@given(sim_cases())
def test_invariants_hold_on_random_networks(case):
    spec, n, seed = case
    run(spec, n, seed, horizon=200.0, invariant_checks="every")


def test_completion_fires_before_simultaneous_arrival():
    # both events at t=1.0: the completion must pop first
    import heapq
    from qnet.des import _ARRIVAL, _COMPLETION

    heap = []
    heapq.heappush(heap, (1.0, _ARRIVAL, 0))
    heapq.heappush(heap, (1.0, _COMPLETION, 3))
    assert heapq.heappop(heap)[1] == _COMPLETION


def test_switch_scaled_path_tracks_fluid():
    # independent cross-check of the two dynamics implementations: the
    # scaled switch sample path follows the fluid trajectory through a
    # region-1 climb into the absorbing edge, closer at larger n
    spec = switch_example_spec()
    q0 = np.zeros(8)
    q0[[0, 7]] = 1.0   # settled outer queues
    q0[1], q0[6] = 0.5, 0.8
    T = 8.0
    grid = np.linspace(0.0, T, 161)
    traj = qnet.integrate(qnet.FluidState.initial(spec, q0, 1.0), spec, T)
    assert traj.q[-1][[1, 6]] == pytest.approx([1.0, 0.8], abs=1e-9)
    fluid_q = np.array([traj.q_at(t) for t in grid])
    sups = []
    for n in (100, 1000):
        trace = run(spec, n, seed=0, horizon=n * T,
                    initial_queues=np.round(q0 * n).astype(int),
                    sample_times=n * grid, invariant_checks="off")
        path = scaled_trajectory(trace, n)
        sups.append(float(np.abs(path.q - fluid_q).sum(axis=1).max()))
    assert sups[1] < sups[0]
    assert sups[1] <= 0.35


# -- invariant checks detect corrupted state -----------------------------
# Each case corrupts one piece of a consistent state and must be caught by
# the check that guards it, with that check's message.  Where an identity
# ties two fields together (Q = Q(0) + A - D, a drawn service per busy
# station), the partner field is adjusted too, so that only the targeted
# check can fire.


def _tandem_after_run():
    # both stations backlogged from the start, so both serve at the end
    sim = Simulation(tandem_spec(1.0, 0.8, 0.5), n=10, seed=5, initial_queues=[6, 4])
    sim.run(30.0, invariant_checks="every")
    assert min(sim.q) > 0 and min(sim.busy_class) >= 0
    return sim


def _at_threshold():
    # deterministic arrivals fill the single queue to n*h = 5 and set its flag
    sim = Simulation(single_queue_spec(h=5.0), n=1, seed=0)
    sim.run(5.5, invariant_checks="every")
    assert sim.q[0] == 5 and sim.flags[0] == 1
    return sim


def _corrupt_arrivals(sim):
    sim.a[1] += 1


def _corrupt_queue(sim):
    sim.q[0] += 1


def _corrupt_negative_queue(sim):
    sim.q0[0] -= sim.q[0] + 1
    sim.q[0] = -1


def _corrupt_prev_busy(sim):
    sim._prev_busy[1] += 1.0


def _corrupt_busy_time(sim):
    sim.busy[0] += sim.t + 1.0


def _corrupt_prev_idle(sim):
    sim._prev_idle[0] += 1.0


def _corrupt_exogenous(sim):
    assert sim.lam[0] >= 1
    sim.e[0] = sim.lam[0] - 1


def _corrupt_arrival_stream(sim):
    sim.arr_streams[0].count += 1


def _corrupt_service_stream(sim):
    sim.svc_streams[1].count += 1


def _corrupt_busy_class(sim):
    # station 1 drops the job it serves: its busy time so far is booked and
    # its service draw undone, so only the backlog is left to notice
    k = sim.busy_class[1]
    sim.busy_class[1] = -1
    sim.svc_streams[k].count -= 1
    sim.busy[k] += sim.t - sim.service_start[1]


def _corrupt_flag_off(sim):
    sim.flags[0] = 0


def _corrupt_flag_on(sim):
    assert sim.q[0] < sim.low and not sim.flags[0]
    sim.flags[0] = 1


MUTATIONS = [
    (_tandem_after_run, _corrupt_arrivals, r"^A != P\^T D \+ Lambda$"),
    (_tandem_after_run, _corrupt_queue, r"^Q != Q\(0\) \+ A - D$"),
    (_tandem_after_run, _corrupt_negative_queue, r"^negative queue length$"),
    (_tandem_after_run, _corrupt_prev_busy, r"^busy time decreased$"),
    (_tandem_after_run, _corrupt_busy_time, r"^negative idle time$"),
    (_tandem_after_run, _corrupt_prev_idle, r"^idle time decreased$"),
    (_tandem_after_run, _corrupt_exogenous, r"^admitted more than arrived$"),
    (_tandem_after_run, _corrupt_arrival_stream, r"^arrival count disagrees with its stream$"),
    (_tandem_after_run, _corrupt_service_stream, r"^departure count disagrees with its stream$"),
    (_tandem_after_run, _corrupt_busy_class, r"^station 1 idle while backlogged$"),
    (_at_threshold, _corrupt_flag_off, r"^flag 0 off at/above threshold$"),
    (_tandem_after_run, _corrupt_flag_on, r"^flag 0 on below the lower threshold$"),
]


@pytest.mark.parametrize(
    "make, corrupt, message", MUTATIONS, ids=[m[1].__name__[9:] for m in MUTATIONS]
)
def test_check_invariants_detects_corruption(make, corrupt, message):
    sim = make()
    sim.check_invariants(sim.t)  # the uncorrupted state passes
    corrupt(sim)
    with pytest.raises(InvariantViolation, match=message):
        sim.check_invariants(sim.t)


def test_unknown_check_mode_leaves_simulation_usable():
    sim = Simulation(tandem_spec(1.0, 0.8, 0.5), n=10, seed=0)
    with pytest.raises(ValueError, match="'off', 'sparse', 'every'"):
        sim.run(10.0, invariant_checks="all")
    assert sim.run(10.0).event_count > 0


def test_sample_times_beyond_horizon_leave_simulation_usable():
    sim = Simulation(tandem_spec(1.0, 0.8, 0.5), n=10, seed=0)
    with pytest.raises(qnet.des.SimulationError, match="outside the horizon"):
        sim.run(10.0, sample_times=[5.0, 11.0])
    trace = sim.run(10.0, sample_times=[5.0, 10.0])
    assert trace.sample_q.shape == (2, 2)


# -- the engine: check modes, sampling and draws -------------------------


def _criterion7_spec(rng):
    # a random valid network of the kind criterion 7 checks: 2-3 stations,
    # 1-3 flows, exponential/pareto/deterministic service, gap 0 or 1
    d = int(rng.integers(2, 4))
    kinds = [
        lambda: DistributionSpec.exponential(1.0 + rng.random()),
        lambda: DistributionSpec.pareto_paper(0.8 + rng.random()),
        lambda: DistributionSpec.deterministic(0.4 + 0.4 * rng.random()),
    ]
    paths, arrival, service = [], [], []
    for _ in range(int(rng.integers(1, 4))):
        length = int(rng.integers(1, d + 1))
        paths.append(tuple(int(s) for s in rng.permutation(d)[:length]))
        arrival.append(DistributionSpec.exponential(0.4 + rng.random()))
        service.append([kinds[int(rng.integers(3))]() for _ in range(length)])
    return build_network(
        paths, arrival=arrival, service=service,
        threshold_base=float(1.0 + 2.0 * rng.random()),
        hysteresis_gap=float(rng.choice([0.0, 1.0])),
        num_stations=d,
    )


def _assert_same_run(t1, t2):
    for field in dataclasses.fields(t1):
        if field.name.startswith("sample"):
            continue
        x, y = getattr(t1, field.name), getattr(t2, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def test_check_modes_and_sampling_leave_the_run_unchanged(monkeypatch):
    # the checks and the sampling only read the state: every mode, sampled
    # or not, gives the same trace, and every interval the engine takes
    # goes through RenewalStream.draw, as counted by a class-level wrapper
    calls = []
    draw = RenewalStream.draw

    def counted(stream):
        calls.append(1)
        return draw(stream)

    monkeypatch.setattr(RenewalStream, "draw", counted)
    rng = np.random.default_rng(4711)
    horizon = 1500.0
    grid = np.linspace(0.0, horizon, 41)
    for _ in range(20):
        spec = _criterion7_spec(rng)
        assert str(validate(spec)) == "valid"
        n, seed = int(rng.integers(1, 12)), int(rng.integers(2**31))
        traces = []
        for mode, times in [("off", None), ("sparse", None), ("every", None), ("off", grid)]:
            calls.clear()
            sim = Simulation(spec, n, seed)
            traces.append(sim.run(horizon, invariant_checks=mode, sample_times=times))
            assert len(calls) == sum(s.count for s in sim.arr_streams + sim.svc_streams)
        assert traces[0].event_count > 1000  # the sparse mode checks at least once
        for trace in traces[1:]:
            _assert_same_run(traces[0], trace)
        sampled = traces[3]
        assert np.array_equal(sampled.sample_q[-1], sampled.q_final)
        assert np.array_equal(sampled.sample_d[-1], sampled.departures)
        assert np.array_equal(sampled.sample_admitted[-1], sampled.admitted)
