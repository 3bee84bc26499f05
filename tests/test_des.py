import dataclasses
import hashlib
import heapq
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnet
from qnet import des
from qnet.des import (
    EmptyWindowError,
    EventBudgetExceeded,
    InvariantViolation,
    Simulation,
    run,
    scaled_trajectory,
)
from qnet.distributions import _BUFFER, DistributionSpec, RenewalStream, make_tapes
from qnet.network import build_network, switch_example_spec, tandem_spec, validate
from test_acceptance import _random_spec

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


def test_threshold_not_finite_rejected():
    # n*h = 1e308 * 10 overflows to inf: run used to raise OverflowError from
    # ceil(inf) after the Simulation was already spent
    with pytest.raises(ValueError, match=r"^threshold n\*h = inf is not finite at n=1e\+308$"):
        Simulation(switch_example_spec(10.0), 1e308, 1)


def test_thresholds_as_floats_and_integers():
    # the check reads the floats, the event loop the integers: a flag is on
    # at or above ceil(n*h) and off at or below floor(n*h - gap), below ceil(n*h)
    assert des.thresholds(tandem_with_gap(1.0), 2.5) == ((2.5, 1.5), (3, 1))
    assert des.thresholds(tandem_with_gap(0.0), 3) == ((3.0, 3.0), (3, 2))
    sim = Simulation(tandem_with_gap(1.0), 2.5, 0, initial_queues=[3, 2])
    assert (sim.nh, sim.low, sim.hi, sim.off) == (2.5, 1.5, 3, 1) and sim.flags == [1, 0]


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


def test_default_event_budget_sums_left_to_right():
    # ten one-hop flows at rate 0.1: ten 0.2 terms summed left to right give
    # 1.9999999999999998 (a correctly rounded sum gives 2.0), so the budget
    # of a 100-unit run is 2999 events, not 3000, on every Python version
    from qnet.des import default_event_budget

    spec = build_network([(i,) for i in range(10)], arrival=[DistributionSpec.exponential(0.1)] * 10,
                         service=[[EXP1]] * 10)
    total = 0.0
    for f in range(10):
        total += 0.1 * 2
    assert total != 2.0
    assert default_event_budget(spec, 100.0) == int(10.0 * (100.0 * total)) + 1000 == 2999


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


def test_initial_queues_at_idle_slot_rejected():
    # a customer at an idle slot used to end the run in "station 1 idle
    # while backlogged", which names no field
    queues = [0, 0, 0, 3, 0, 0, 0, 0]
    with pytest.raises(ValueError, match=r"initial_queues must be 0 at the idle slots \[3, 5\]"):
        Simulation(switch_example_spec(), 5, 1, initial_queues=queues)


def test_simulation_is_single_use():
    sim = Simulation(tandem_spec(1.0, 0.8, 0.5), 10, seed=0)
    sim.run(50.0)
    with pytest.raises(qnet.des.SimulationError, match="^a Simulation is single-use; build a new one$"):
        sim.run(50.0)


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


def test_scaled_trajectory_of_an_empty_grid_is_empty():
    spec = tandem_spec(1.0, 0.8, 0.5)
    trace = run(spec, 10, seed=0, horizon=100.0, sample_times=[])
    path = scaled_trajectory(trace, 3)
    assert path.times.shape == (0,) and path.q.shape == (0, spec.num_classes)


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
    fluid_q = np.array([traj.state_at(t).q for t in grid])
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
    # arrivals at t = 1, 2, ... and services of exactly 1.0 tie from t = 2 on,
    # and n*h = 1 holds one job.  The completion fires first and clears the
    # flag, so every arrival is admitted; had the arrival fired first, it
    # would find the flag on and every second one would be discarded
    spec = build_network(
        [(0,)],
        arrival=[DistributionSpec.deterministic(1.0)],
        service=[[DistributionSpec.deterministic(1.0)]],
        threshold_base=1.0,
    )
    trace = run(spec, n=1, seed=0, horizon=10.5, invariant_checks="every")
    assert trace.exogenous[0] == trace.admitted[0] == 10
    assert trace.departures[0] == 9 and trace.q_final[0] == 1
    assert trace.event_count == 19


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
    fluid_q = np.array([traj.state_at(t).q for t in grid])
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


def _drop_service(sim, i):
    # station i drops the job it serves: its busy time so far is booked and
    # its service draw undone, so only the backlog is left to notice
    k = sim.busy_class[i]
    sim.busy_class[i] = -1
    sim.svc_streams[k].count -= 1
    sim.busy[k] += sim.t - sim.service_start[i]


def _corrupt_busy_class(sim):
    _drop_service(sim, 1)


def _corrupt_flag_off(sim):
    sim.flags[0] = 0


def _corrupt_flag_on(sim):
    assert sim.q[0] < sim.low and not sim.flags[0]
    sim.flags[0] = 1


def _switch_after_run():
    # the switch (8 classes, 3 flows, 4 stations) with every station
    # backlogged from the start and class 7 above n*h = 2 at the end, so
    # the cases below reach indices the two-class tandem has not
    sim = Simulation(switch_example_spec(), n=2, seed=3, initial_queues=[4, 4, 12, 0, 12, 0, 12, 30])
    sim.run(10.0, invariant_checks="every")
    assert min(sim.busy_class) >= 0 and sim.q[7] >= sim.nh and sim.flags[7]
    return sim


def _corrupt_class6_arrivals(sim):
    sim.a[6] += 1


def _corrupt_class4_queue(sim):
    sim.q[4] += 1


def _corrupt_flow2_arrival_stream(sim):
    sim.arr_streams[2].count += 1


def _corrupt_class7_service_stream(sim):
    sim.svc_streams[7].count += 1


def _corrupt_station3_busy_class(sim):
    _drop_service(sim, 3)


def _corrupt_flag7_off(sim):
    sim.flags[7] = 0


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
    (_switch_after_run, _corrupt_class6_arrivals, r"^A != P\^T D \+ Lambda$"),
    (_switch_after_run, _corrupt_class4_queue, r"^Q != Q\(0\) \+ A - D$"),
    (_switch_after_run, _corrupt_flow2_arrival_stream, r"^arrival count disagrees with its stream$"),
    (_switch_after_run, _corrupt_class7_service_stream, r"^departure count disagrees with its stream$"),
    (_switch_after_run, _corrupt_station3_busy_class, r"^station 3 idle while backlogged$"),
    (_switch_after_run, _corrupt_flag7_off, r"^flag 7 off at/above threshold$"),
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


def test_check_is_compiled_once_per_structure_and_called_per_event(monkeypatch):
    # run binds check_invariants when it starts, so a class-level wrapper
    # sees every check of an "every" run
    calls = []
    check = Simulation.check_invariants

    def counted(sim, t):
        calls.append(t)
        check(sim, t)

    monkeypatch.setattr(Simulation, "check_invariants", counted)
    spec = switch_example_spec()
    sim = Simulation(spec, n=10, seed=1)
    trace = sim.run(200.0, invariant_checks="every")
    assert trace.event_count > 0 and len(calls) == trace.event_count
    # the compiled check belongs to the structure, not to the spec object
    for other in (Simulation(spec, 10, 2), Simulation(dataclasses.replace(spec), 5, 3)):
        assert other._check is sim._check
    # same class, flow and station counts, but class 0 is at another station
    line = [[EXP1, EXP1]]
    forward = Simulation(build_network([(0, 1)], arrival=[EXP1], service=line), 10, 1)
    backward = Simulation(build_network([(1, 0)], arrival=[EXP1], service=line), 10, 1)
    assert forward._check is not backward._check


def test_loop_is_compiled_once_per_structure_and_grows_linearly(monkeypatch):
    def loop(spec, checked):
        return des._compile_loop(spec.routes, spec.successor, spec.station_of, spec.cycles, spec.members,
                                 checked)

    spec = switch_example_spec()
    for checked in (True, False):
        assert loop(dataclasses.replace(spec), checked) is loop(spec, checked)
    assert loop(spec, True) is not loop(spec, False)
    # a cycle's length is table data, not source: weights 40:1 compile to as
    # many bytecode bytes as 1:1; flows on their own stations add bytecode in
    # proportion.  Both loops, the checked and the unchecked one
    def size(net, checked):
        return len(loop(net, checked).__code__.co_code)

    station, _ = two_class_station()
    weighted, _ = two_class_station(weights=(40, 1))
    assert len(weighted.cycles[0]) == 41

    def parallel(m):
        return build_network([(i,) for i in range(m)], arrival=[EXP1] * m, service=[[EXP1]] * m)

    for checked in (True, False):
        assert size(weighted, checked) == size(station, checked)
        sizes = [size(parallel(m), checked) for m in (4, 8, 16)]
        assert sizes[2] - sizes[1] <= 2 * (sizes[1] - sizes[0]) + 32
    # the generated text is dropped once compiled
    assert not hasattr(loop(spec, True), "source") and not hasattr(Simulation(spec, 10, 1)._check, "source")

    # a run fetches the loop of its mode when it starts: Simulations of one
    # structure share it
    fetched, want = [], [loop(spec, True)] * 2 + [loop(spec, False)] * 2
    compile_loop = des._compile_loop

    def recorded(*structure):
        fetched.append(compile_loop(*structure))
        return fetched[-1]

    monkeypatch.setattr(des, "_compile_loop", recorded)
    for net, mode in [(spec, "every"), (dataclasses.replace(spec), "sparse"), (spec, "off"),
                      (dataclasses.replace(spec), "off")]:
        Simulation(net, 10, 1).run(50.0, invariant_checks=mode)
    assert fetched == want

    # both loops' texts on the switch are pinned, as text because their
    # bytecode differs between Python versions: the invariant check reads
    # what the checked loop counts, sweeps run the unchecked one, and a
    # change to either shows here
    texts = [_generated_text(monkeypatch, compile_loop, spec.routes, spec.successor, spec.station_of,
                             spec.cycles, spec.members, checked) for checked in (True, False)]
    assert [len(text.splitlines()) for text in texts] == [297, 286]
    assert [hashlib.sha256(text.encode()).hexdigest() for text in texts] == [
        "3f4bded0e37f1582af7f3dc16f6ea939aca7aa7b195afb8b9700c4563a25a5b6",
        "600b2d8cda189d3f3784dd9c05807a6aa41a204d5153cdd72377a5f183de8cfa"]


# what only a checked loop keeps: A, and the countdown to the next check
_CHECK_ONLY = re.compile(r"\s*(a = sim\.a|a\[\d+\] \+= 1|left = period|if not left:|check\(t\)|left -= 1)")


def _without_check_only_lines(text):
    # the checked loop's text as the unchecked loop would write it: no line
    # that only the check reads, each counted draw ``ss3()`` as ``nx(ss3)``
    # and the streams' ``draw`` as their ``intervals``
    text = "\n".join(x for x in text.splitlines() if not _CHECK_ONLY.fullmatch(x))
    text = text.replace("[s.draw for s in", "[s.intervals for s in")
    return re.sub(r"\b(sa\d+|ss\d+|ss\[c\])\(\)", r"nx(\1)", text)


def test_checked_loop_is_the_unchecked_loop_plus_check_only_lines(monkeypatch):
    # one skeleton: the two modes share the loop header, the budget raise
    # and the return, and differ only in what the invariant check reads.
    # On the switch and on a network with a one-class station, a station
    # cycling over two classes and an idle slot
    mixed = build_network([(0, 1), (1,)], arrival=[EXP1, EXP1], service=[[EXP1, EXP1], [EXP1]],
                          num_stations=2, idle_slots={3: 0})
    assert [len(cyc) for cyc in mixed.cycles] == [1, 2] and mixed.idle_slots == {3}
    for spec in (switch_example_spec(), mixed):
        structure = (spec.routes, spec.successor, spec.station_of, spec.cycles, spec.members)
        checked, unchecked = (_generated_text(monkeypatch, des._compile_loop, *structure, mode)
                              for mode in (True, False))
        for text in (checked, unchecked):
            lines = [x.strip() for x in text.splitlines()]
            assert lines.count("for _ in repeat(None, budget + 1):") == 1
            assert sum(x.startswith("raise EventBudgetExceeded") for x in lines) == 1
            assert [x for x in lines if x.startswith("return")] == ["return sum(e) + sum(d), r"]
        # every fed class counts its arrivals, and the check runs at one place
        check_only = [x.strip() for x in checked.splitlines() if _CHECK_ONLY.fullmatch(x)]
        fed = sorted(k for ks in spec.fed for k in ks)
        assert sorted(check_only) == sorted(
            [f"a[{k}] += 1" for k in fed]
            + ["a = sim.a", "check(t)", "if not left:", "left -= 1", "left = period", "left = period"])
        assert not any(_CHECK_ONLY.fullmatch(x) for x in unchecked.splitlines())
        assert "check(" not in unchecked and ".draw" not in unchecked
        assert _without_check_only_lines(checked).splitlines() == [
            x for x in unchecked.splitlines() if x != "    nx = next"]


def _generated_text(monkeypatch, generator, *structure):
    # the source text that ``generator``, one of des's cached code
    # generators, writes for ``structure``, bypassing its cache
    texts = []
    define = des._define

    def kept(lines, *args):
        texts.append("\n".join(lines))
        return define(lines, *args)

    monkeypatch.setattr(des, "_define", kept)
    generator.__wrapped__(*structure)
    monkeypatch.setattr(des, "_define", define)
    return texts[0]


def test_check_text_is_pinned(monkeypatch):
    # the compiled check's text on the switch is pinned, as text because its
    # bytecode differs between Python versions.  Each state list is read
    # once, unpacked into locals; only the copy of the busy times (which
    # takes each in-progress service on the class its station names), the
    # classes in service and the service starts are subscripted
    spec = switch_example_spec()
    text = _generated_text(monkeypatch, des._compile_check, *spec.check_structure, spec.num_flows)
    lines = text.splitlines()
    assert lines[1] == "    q0, q1, q2, q3, q4, q5, q6, q7, = sim.q"
    assert set(re.findall(r"(\w+)\[(?!:)", text)) == {"b", "bc", "ss"}
    assert len(lines) == 102
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d3eb07074f0880fcd07e3b1bf5134b5d77467c64f1bc989668caa10f3516baa2")


def test_loop_calls_heapq_as_bound_when_the_run_starts(monkeypatch):
    # the loop is compiled before heapq is wrapped and still calls the
    # wrappers: each event takes itself off the heap top exactly once
    spec = tandem_spec(1.0, 0.8, 0.5)
    run(spec, 4, 1, 10.0)
    calls = {"heappush": 0, "heappop": 0, "heapreplace": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(heapq, name)):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(heapq, name, counted)
    trace = run(spec, 4, 1, 200.0)
    assert calls["heapreplace"] + calls["heappop"] == trace.event_count > 0
    assert calls["heappush"] > spec.num_flows


def _reference_structure(spec):
    # per class (the classes routed into it, the flow entering at it or -1)
    # and per station the classes it serves, read from the matrices
    P, C = spec.routing_matrix, spec.constituency
    entering = [-1] * spec.num_classes
    for f in range(spec.num_flows):
        entering[spec.class_of[(f, 0)]] = f
    feeds = tuple((tuple(int(j) for j in np.flatnonzero(P[:, k])), entering[k])
                  for k in range(spec.num_classes))
    served = tuple(tuple(int(k) for k in np.flatnonzero(C[i])) for i in range(spec.num_stations))
    return feeds, served


def test_check_structure_is_the_one_read_from_the_matrices():
    rng = np.random.default_rng(21)
    specs = [switch_example_spec(), tandem_spec(1.0, 0.8, 0.5)] + [_random_spec(rng) for _ in range(20)]
    for spec in specs:
        assert spec.check_structure == _reference_structure(spec)


def _reference_check(sim, t):
    # the identities as loops over the structure read from the matrices, in
    # the order and with the messages of the compiled check
    spec = sim.spec
    feeds, served = _reference_structure(spec)
    q, a, d, lam = sim.q, sim.a, sim.d, sim.lam
    for k, (preds, f) in enumerate(feeds):
        routed = lam[f] if f >= 0 else 0
        for j in preds:
            routed += d[j]
        if a[k] != routed:
            raise InvariantViolation("A != P^T D + Lambda")
    for q0k, ak, dk, qk in zip(sim.q0, a, d, q):
        if qk != q0k + ak - dk:
            raise InvariantViolation("Q != Q(0) + A - D")
    if min(q) < 0:
        raise InvariantViolation("negative queue length")
    busy = sim.busy[:]
    for i, c in enumerate(sim.busy_class):
        if c >= 0:
            busy[c] += t - sim.service_start[i]
    for b, prev in zip(busy, sim._prev_busy):
        if b < prev - 1e-9:
            raise InvariantViolation("busy time decreased")
    idle = []
    for i in range(spec.num_stations):
        total = 0
        for k in served[i]:
            total += busy[k]
        idle.append(t - total)
    if min(idle) < -1e-9:
        raise InvariantViolation("negative idle time")
    for x, prev in zip(idle, sim._prev_idle):
        if x < prev - 1e-9:
            raise InvariantViolation("idle time decreased")
    for e, admitted, stream in zip(sim.e, lam, sim.arr_streams):
        if admitted > e:
            raise InvariantViolation("admitted more than arrived")
        if e != stream.count - 1:
            raise InvariantViolation("arrival count disagrees with its stream")
    drawn = [stream.count for stream in sim.svc_streams]
    for c in set(sim.busy_class):
        if c >= 0:
            drawn[c] -= 1
    if drawn != d:
        raise InvariantViolation("departure count disagrees with its stream")
    for i in range(spec.num_stations):
        if sim.busy_class[i] < 0 and any(q[k] > 0 for k in served[i]):
            raise InvariantViolation(f"station {i} idle while backlogged")
    for k, qk in enumerate(q):
        if qk >= sim.nh and not sim.flags[k]:
            raise InvariantViolation(f"flag {k} off at/above threshold")
        if qk < sim.low and sim.flags[k]:
            raise InvariantViolation(f"flag {k} on below the lower threshold")
    sim._prev_busy = busy
    sim._prev_idle = idle


_INT_FIELDS = ("q", "a", "d", "lam", "e", "q0", "flags")
_FLOAT_FIELDS = ("busy", "service_start", "_prev_busy", "_prev_idle")


def _outcome(check, sim, prev):
    sim._prev_busy, sim._prev_idle = list(prev[0]), list(prev[1])
    try:
        check(sim, sim.t)
    except InvariantViolation as exc:
        return str(exc)
    return sim._prev_busy, sim._prev_idle


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_compiled_check_matches_reference_loops(seed, data):
    # random networks, each run and then corrupted in one to three random
    # places: the compiled check and the loops raise the same first message,
    # or both pass and leave the same busy and idle times
    rng = np.random.default_rng(seed)
    sim = Simulation(_criterion7_spec(rng), int(rng.integers(1, 12)), seed)
    sim.run(float(rng.uniform(1.0, 40.0)), invariant_checks="every")
    K, F, d = sim.spec.num_classes, sim.spec.num_flows, sim.spec.num_stations
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(_INT_FIELDS + _FLOAT_FIELDS + (
            "busy_class", "arrival count", "service count", "nh", "low", "backlog", "drop service"
        )))
        if kind == "backlog":  # Q and Q(0) together, so later checks see it
            k, step = data.draw(st.integers(0, K - 1)), data.draw(st.sampled_from([-3, -1, 1, 3]))
            sim.q[k] += step
            sim.q0[k] += step
        elif kind == "drop service":
            i = data.draw(st.integers(0, d - 1))
            if sim.busy_class[i] >= 0:
                _drop_service(sim, i)
        elif kind in ("nh", "low"):
            setattr(sim, kind, getattr(sim, kind) + data.draw(st.sampled_from([-1.0, 1.0])))
        elif kind == "arrival count":
            sim.arr_streams[data.draw(st.integers(0, F - 1))].count += data.draw(st.sampled_from([-1, 1]))
        elif kind == "service count":
            sim.svc_streams[data.draw(st.integers(0, K - 1))].count += data.draw(st.sampled_from([-1, 1]))
        elif kind == "busy_class":
            sim.busy_class[data.draw(st.integers(0, d - 1))] = data.draw(st.integers(-1, K - 1))
        else:
            values = getattr(sim, kind)
            i = data.draw(st.integers(0, len(values) - 1))
            if kind in _INT_FIELDS:
                values[i] += data.draw(st.sampled_from([-2, -1, 1, 2]))
            else:
                values[i] += data.draw(st.sampled_from([-1.0, -1e-10, 1e-10, 1.0]))
    prev = (list(sim._prev_busy), list(sim._prev_idle))
    assert _outcome(sim._check, sim, prev) == _outcome(_reference_check, sim, prev)


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


@pytest.mark.parametrize("times", [[np.nan, 1.0], [[1.0, 2.0]], 1.0], ids=["nan", "2d", "scalar"])
def test_malformed_sample_times_leave_simulation_usable(times):
    # nan passed both bounds and the t=1 row took the final state
    sim = Simulation(tandem_spec(1.0, 0.8, 0.5), n=4, seed=2)
    with pytest.raises(qnet.des.SimulationError, match="outside the horizon"):
        sim.run(50.0, sample_times=times)
    assert sim.run(50.0, sample_times=[1.0]).sample_q.tolist() == [[0, 0]]


def test_unsorted_sample_times_record_the_state_at_each_time():
    # a record is the state at its own time, whatever the order of the
    # times: the t=40 state used to land in the t=1 row
    spec = tandem_spec(1.0, 0.8, 0.5)
    times = [40.0, 1.0, 25.0, 1.0, 50.0, 0.0, 10.0]
    order = np.argsort(times, kind="stable")
    shuffled = run(spec, 4, 2, 50.0, sample_times=times)
    ordered = run(spec, 4, 2, 50.0, sample_times=np.array(times)[order])
    assert shuffled.sample_q[:2].tolist() == [[2, 4], [0, 0]]
    for name in ("sample_q", "sample_d", "sample_admitted"):
        assert np.array_equal(getattr(shuffled, name)[order], getattr(ordered, name)), name
    _assert_same_run(shuffled, ordered)


def test_empty_sample_times_keep_their_shapes():
    trace = run(switch_example_spec(), 4, 2, 20.0, sample_times=[])
    assert trace.sample_q.shape == trace.sample_d.shape == (0, 8)
    assert trace.sample_admitted.shape == (0, 3)
    assert trace.sample_q.dtype == trace.sample_admitted.dtype == np.int64


@pytest.mark.parametrize("seed", [-1, 1.5, np.nan, np.inf])
def test_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
        Simulation(tandem_spec(1.0, 0.8, 0.5), n=4, seed=seed)


@pytest.mark.parametrize("seed", [3.0, np.float64(3.0), np.int64(3)])
def test_integral_seed_of_any_type_runs_as_its_int(seed):
    # 3.0 passed the seed check and then failed in SeedSequence with a TypeError
    spec = tandem_spec(1.0, 0.8, 0.5)
    trace = run(spec, 4, seed, 50.0)
    assert trace.seed == 3 and _trace_bits(trace) == _trace_bits(run(spec, 4, 3, 50.0))


# -- interval tapes shared by the runs of one seed -----------------------


def _trace_bits(trace):
    return {f.name: pickle.dumps(getattr(trace, f.name)) for f in dataclasses.fields(trace)}


@pytest.mark.parametrize("spec", [switch_example_spec(), tandem_spec(1.0, 0.8, 0.5)], ids=["switch", "tandem"])
def test_runs_sharing_tapes_equal_fresh_runs(spec):
    # one seed's runs at several n, in ascending and in descending order,
    # read one set of tapes: each trace is bitwise the run's own, both
    # when a run reads past the end of the tapes and extends them and when
    # it stops short of what an earlier run computed
    seed, horizon = 11, 4000.0
    fresh = {n: _trace_bits(run(spec, n, seed, horizon)) for n in (3, 12, 40)}
    overran = underran = False
    for order in ((3, 12, 40), (40, 12, 3)):
        tapes = make_tapes(spec, seed)
        every = tapes.arrivals + tapes.services
        for i, n in enumerate(order):
            before = [len(t.blocks) for t in every]
            sim = Simulation(spec, n, seed, tapes=tapes)
            assert _trace_bits(sim.run(horizon)) == fresh[n]
            after = [len(t.blocks) for t in every]
            overran |= i > 0 and after != before
            streams = sim.arr_streams + sim.svc_streams
            underran |= any(-(-s.count // _BUFFER) < len(s.tape.blocks) for s in streams)
    assert overran and underran


def test_budget_failure_leaves_the_tapes_whole(monkeypatch):
    # a run that stops at its event budget leaves the seed's tapes as a
    # prefix of the seed's intervals: the next run on them is a fresh run
    spec, seed, horizon = switch_example_spec(), 5, 800.0
    tapes = make_tapes(spec, seed)
    budget = des.default_event_budget
    monkeypatch.setattr(des, "default_event_budget", lambda *args: 300)
    with pytest.raises(EventBudgetExceeded, match="exceeded event budget 300"):
        run(spec, 10, seed, horizon, tapes=tapes)
    monkeypatch.setattr(des, "default_event_budget", budget)
    for n in (20, 10):
        assert _trace_bits(run(spec, n, seed, horizon, tapes=tapes)) == _trace_bits(run(spec, n, seed, horizon))


def test_tapes_of_another_seed_or_laws_rejected():
    spec = tandem_spec(1.0, 0.8, 0.5)
    with pytest.raises(ValueError, match="tapes of seed 3 read by a run of seed 4"):
        Simulation(spec, 4, 4, tapes=make_tapes(spec, 3))
    for other in (tandem_spec(1.0, 0.9, 0.5), switch_example_spec()):
        with pytest.raises(ValueError, match="other arrival or service laws"):
            run(spec, 4, 3, 10.0, tapes=make_tapes(other, 3))


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
    # or not, gives the same trace.  As counted by a class-level wrapper,
    # a checked run takes every interval through RenewalStream.draw, an
    # unchecked one only the F first arrivals that Simulation draws when
    # built, and sets its streams' counts to those of the checked runs
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
        traces, counts = [], []
        for mode, times in [("off", None), ("sparse", None), ("every", None), ("off", grid)]:
            calls.clear()
            sim = Simulation(spec, n, seed)
            traces.append(sim.run(horizon, invariant_checks=mode, sample_times=times))
            counts.append([s.count for s in sim.arr_streams + sim.svc_streams])
            assert len(calls) == (spec.num_flows if mode == "off" else sum(counts[-1]))
        assert counts[0] == counts[1] == counts[2] == counts[3]
        assert traces[0].event_count > 1000  # the sparse mode checks at least once
        for trace in traces[1:]:
            _assert_same_run(traces[0], trace)
        sampled = traces[3]
        assert np.array_equal(sampled.sample_q[-1], sampled.q_final)
        assert np.array_equal(sampled.sample_d[-1], sampled.departures)
        assert np.array_equal(sampled.sample_admitted[-1], sampled.admitted)


# -- the compiled event loop against the generic one ---------------------


def _reference_run(sim, horizon, budget, period, check, hi, off, marks, records, order):
    # the event loop before it was compiled: one loop over the spec's index
    # tables, with a round-robin closure and the float thresholds nh and low
    # (``hi`` and ``off`` are unused).  It takes the compiled loop's
    # arguments and returns what the compiled loop returns, so a test can
    # put it in the compiled loop's place.
    spec = sim.spec
    K = spec.num_classes
    q, a, d, lam, e, flags = sim.q, sim.a, sim.d, sim.lam, sim.e, sim.flags
    busy, busy_class = sim.busy, sim.busy_class
    service_start, cursor = sim.service_start, sim.cursor
    routes, successor, station_of = spec.routes, spec.successor, spec.station_of
    cycles, members = spec.cycles, spec.members
    nh, low = sim.nh, sim.low
    heap = sim.heap
    heappush, heappop = heapq.heappush, heapq.heappop
    arr_draw = [s.draw for s in sim.arr_streams]
    svc_draw = [s.draw for s in sim.svc_streams]

    def start(i, t):
        # weighted round robin: serve the first nonempty class at or after
        # station i's cursor; if all are empty, idle and keep the cursor
        cyc = cycles[i]
        L = len(cyc)
        cur = cursor[i]
        for _ in range(L):
            c = cyc[cur]
            cur += 1
            if cur == L:
                cur = 0
            if q[c] > 0:
                cursor[i] = cur
                busy_class[i] = c
                service_start[i] = t
                heappush(heap, (t + svc_draw[c](), c))
                return
        busy_class[i] = -1

    for i in range(spec.num_stations):
        start(i, 0.0)

    r = 0
    mark = marks[0]
    next_check = period if period else -1
    events = 0
    t = 0.0
    try:
        while heap:
            ev = heappop(heap)
            t, code = ev
            if t > horizon:
                heappush(heap, ev)
                break
            while t > mark:
                records[order[r]] = q + d + lam
                r += 1
                mark = marks[r]
            if code >= K:
                f = code - K
                e[f] += 1
                heappush(heap, (t + arr_draw[f](), code))
                route = routes[f]
                for k in route:
                    if flags[k]:
                        break  # discarded: some queue of the flow is above threshold
                else:
                    k = route[0]
                    qk = q[k] + 1
                    q[k] = qk
                    a[k] += 1
                    lam[f] += 1
                    if qk >= nh:
                        flags[k] = 1
                    i = station_of[k]
                    if busy_class[i] < 0:
                        if sum(q[c] for c in members[i]) != 1:
                            raise InvariantViolation(f"station {i} idle while backlogged")
                        start(i, t)
            else:
                k = code
                i = station_of[k]
                busy[k] += t - service_start[i]
                d[k] += 1
                qk = q[k] - 1
                q[k] = qk
                if qk >= nh:
                    flags[k] = 1
                elif qk <= low:
                    flags[k] = 0
                l = successor[k]
                if l >= 0:
                    ql = q[l] + 1
                    q[l] = ql
                    a[l] += 1
                    if ql >= nh:
                        flags[l] = 1
                    j = station_of[l]
                    if busy_class[j] < 0:
                        start(j, t)
                start(i, t)
            events += 1
            if events > budget:
                raise EventBudgetExceeded(f"exceeded event budget {budget} at t={t:.6g}")
            if events == next_check:
                check(t)
                next_check += period
    except BaseException:
        sim.t = t
        raise
    return events, r


_LAWS = [
    DistributionSpec.exponential(1.3),
    DistributionSpec.pareto_paper(0.9),
    DistributionSpec.deterministic(0.5),
    DistributionSpec.deterministic(1.0),
]


@st.composite
def engine_cases(draw):
    # weighted cycles, ties between deterministic events, float and
    # integral n*h with gap 0 or 1, an idle slot, initial backlogs, sample
    # times and every check mode
    d = draw(st.integers(1, 3))
    paths, arrival, service, weights = [], [], [], []
    for _ in range(draw(st.integers(1, 3))):
        perm = draw(st.permutations(range(d)))
        paths.append(tuple(perm[:draw(st.integers(1, d))]))
        arrival.append(draw(st.sampled_from(_LAWS)))
        service.append([draw(st.sampled_from(_LAWS)) for _ in paths[-1]])
        weights.append(draw(st.integers(1, 3)))
    hops = sum(map(len, paths))
    idle = {hops: draw(st.integers(0, d - 1))} if draw(st.booleans()) else None
    spec = build_network(
        paths, arrival=arrival, service=service, weights=weights,
        threshold_base=draw(st.one_of(st.sampled_from([1.0, 2.0, 1.5]), st.floats(1.0, 4.0))),
        hysteresis_gap=draw(st.sampled_from([0.0, 1.0])),
        num_stations=d, idle_slots=idle,
    )
    n = draw(st.integers(1, 6))
    queues = [0 if idle and k == hops else draw(st.integers(0, 3 * n)) for k in range(spec.num_classes)]
    horizon = draw(st.floats(5.0, 300.0))
    times = draw(st.one_of(st.none(), st.lists(
        st.one_of(st.floats(0.0, horizon), st.integers(0, int(horizon)).map(float)), max_size=5)))
    run_args = dict(warmup_frac=draw(st.sampled_from([0.0, 0.2, 0.5])), sample_times=times,
                    invariant_checks=draw(st.sampled_from(["every", "every", "sparse", "off"])))
    budget = draw(st.one_of(st.none(), st.integers(0, 400)))
    return spec, n, draw(st.integers(0, 2**32 - 1)), queues, horizon, run_args, budget


_STATE = ("t", "event_count", "q", "a", "d", "lam", "e", "flags", "busy", "busy_class",
          "service_start", "cursor", "_prev_busy", "_prev_idle")


def _engine_outcome(case, loop, monkeypatch):
    # the trace or the error of one run, the checks it made, and the state
    # it left, with the event loop ``loop`` in place of the compiled one
    spec, n, seed, queues, horizon, run_args, budget = case
    checks = []
    check = Simulation.check_invariants

    def recorded(sim, t):
        checks.append(t)
        check(sim, t)

    monkeypatch.setattr(Simulation, "check_invariants", recorded)
    if loop is not None:
        monkeypatch.setattr(des, "_compile_loop", lambda *structure: loop)
    if budget is not None:
        monkeypatch.setattr(des, "default_event_budget", lambda *args: budget)
    sim = Simulation(spec, n, seed, initial_queues=queues)
    try:
        result = sim.run(horizon, **run_args)
    except EventBudgetExceeded as exc:
        result = str(exc)
    state = [repr(getattr(sim, name)) for name in _STATE]
    state.append(sorted(sim.heap))
    state.append([s.count for s in sim.arr_streams + sim.svc_streams])
    return result, checks, state


def _trace_bytes(trace):
    # every field of a SimTrace, arrays by dtype, shape and bytes
    out = []
    for field in dataclasses.fields(trace):
        x = getattr(trace, field.name)
        out.append((x.dtype.str, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else repr(x))
    return out


@pytest.mark.parametrize("budget", [1999, 2000, 2001, None])
@pytest.mark.parametrize("n, seed, queues, horizon, times", [
    (10, 5, None, 700.0, None),
    (3, 8, [4, 4, 2, 0, 6, 0, 3, 9], 900.0, [0.0, 250.5, 899.0]),
])
def test_sparse_checks_match_the_generic_loop(n, seed, queues, horizon, times, budget):
    # engine_cases' budgets and horizons rarely reach a sparse check; these
    # switch runs of 3448 and 3606 events check after events 1000, 2000 and
    # 3000, or stop at a budget just below, at or above a check
    run_args = dict(warmup_frac=0.2, sample_times=times, invariant_checks="sparse")
    case = (switch_example_spec(), n, seed, queues, horizon, run_args, budget)
    with pytest.MonkeyPatch.context() as mp:
        compiled = _engine_outcome(case, None, mp)
    with pytest.MonkeyPatch.context() as mp:
        generic = _engine_outcome(case, _reference_run, mp)
    result, checks, state = compiled
    if budget is None:
        assert 2500 <= result.event_count <= 5000 and len(checks) == 3
        assert _trace_bytes(result) == _trace_bytes(generic[0])
    else:
        assert result.startswith(f"exceeded event budget {budget} at t=") and result == generic[0]
        assert len(checks) == budget // 1000
    assert checks == generic[1]
    assert state == generic[2]


@pytest.mark.parametrize("budget", [0, 1, 499, 500])
def test_every_checks_stop_at_the_budget(budget):
    # engine_cases draws its budgets only by chance: an "every" run on the
    # switch (3448 events to the horizon) checks after each event up to the
    # budget but not after the event that overruns it, and raises the
    # generic loop's error at the same t, leaving the same state
    run_args = dict(warmup_frac=0.2, sample_times=None, invariant_checks="every")
    case = (switch_example_spec(), 10, 5, None, 700.0, run_args, budget)
    with pytest.MonkeyPatch.context() as mp:
        compiled = _engine_outcome(case, None, mp)
    with pytest.MonkeyPatch.context() as mp:
        generic = _engine_outcome(case, _reference_run, mp)
    result, checks, state = compiled
    assert result.startswith(f"exceeded event budget {budget} at t=") and result == generic[0]
    assert len(checks) == budget and checks == generic[1]
    assert state == generic[2]


@settings(max_examples=100, deadline=None)
@given(engine_cases())
def test_compiled_loop_matches_the_generic_loop(case):
    # the same trace or the same budget error at the same t, the same checks
    # and the same final state, byte for byte
    with pytest.MonkeyPatch.context() as mp:
        compiled = _engine_outcome(case, None, mp)
    with pytest.MonkeyPatch.context() as mp:
        generic = _engine_outcome(case, _reference_run, mp)
    result, checks, state = compiled
    if isinstance(result, str):
        assert result == generic[0]
    else:
        assert _trace_bytes(result) == _trace_bytes(generic[0])
    assert checks == generic[1]
    assert state == generic[2]
