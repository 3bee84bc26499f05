import copy
import dataclasses
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import qnet
from qnet.distributions import DistributionSpec
from qnet.fluid import TRAJECTORY_COLUMNS, FluidRateError, FluidState, _classify, integrate, solve_rates
from qnet.network import SWITCH, build_network, fair_rates, switch_example_spec, tandem_spec

EXP = DistributionSpec.exponential


def settled_switch_state(q2, q7, hbar=1.0):
    q = np.zeros(8)
    q[SWITCH.flow1_ingress] = hbar
    q[SWITCH.flow3_egress] = hbar
    q[SWITCH.flow2_ingress] = q2
    q[SWITCH.flow2_egress] = q7
    return FluidState.initial(switch_example_spec(), q, hbar)


class TestSolveRates:
    def test_tandem_interior(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        rv = solve_rates(FluidState.initial(spec, [0.3, 0.6], 1.0), spec)
        assert rv.q_dot == pytest.approx([0.2, 0.3], abs=1e-12)
        assert rv.admit[0] == 1.0

    def test_tandem_absorbing_state(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        rv = solve_rates(FluidState.initial(spec, [0.0, 1.0], 1.0), spec)
        assert rv.q_dot == pytest.approx([0.0, 0.0], abs=1e-12)
        assert rv.depart[1] == pytest.approx(0.5, abs=1e-12)
        assert rv.admit[0] == pytest.approx(0.5, abs=1e-12)

    def test_tandem_above_threshold_discards(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        rv = solve_rates(FluidState.initial(spec, [2.0, 0.5], 1.0), spec)
        assert rv.admit[0] == 0.0
        assert rv.q_dot == pytest.approx([-0.8, 0.3], abs=1e-12)

    def test_arrival_clock_gates_admissions(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        rv = solve_rates(FluidState.initial(spec, [0.2, 0.2], 1.0, u=[3.0]), spec)
        assert rv.admit[0] == 0.0

    def test_service_gate_blocks_departures(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        rv = solve_rates(FluidState.initial(spec, [0.5, 0.2], 1.0, v=[2.0, 0.0]), spec)
        assert rv.depart[0] == 0.0
        assert rv.busy[0] == pytest.approx(1.0)  # still served at full rate

    def test_residual_service_occupies_the_whole_server(self):
        # the job behind a residual service holds its single non-preemptive
        # server, so the sibling queue at the station is blocked meanwhile
        # and the residual burns down at unit rate
        from qnet.distributions import DistributionSpec as D

        spec = build_network(
            [(0,), (0,)],
            arrival=[D.exponential(0.9), D.exponential(0.9)],
            service=[[D.exponential(1.0)], [D.exponential(1.0)]],
            threshold_base=10.0,
        )
        st = FluidState.initial(spec, [0.5, 0.5], 10.0, v=[0.75, 0.0])
        rv = solve_rates(st, spec)
        assert list(rv.busy) == [1.0, 0.0]
        assert list(rv.depart) == [0.0, 0.0]
        assert rv.idle[0] == 0.0
        traj = integrate(st, spec, 2.0)
        assert traj.times[1] == pytest.approx(0.75, abs=1e-12)
        assert traj.v[1][0] == 0.0
        # both queues filled at their full arrival rates while blocked
        assert traj.q[1] == pytest.approx([0.5 + 0.75 * 0.9] * 2, abs=1e-12)

    def test_two_residual_services_per_station_rejected(self):
        from qnet.distributions import DistributionSpec as D

        spec = build_network(
            [(0,), (0,)],
            arrival=[D.exponential(0.9), D.exponential(0.9)],
            service=[[D.exponential(1.0)], [D.exponential(1.0)]],
        )
        state = FluidState.initial(spec, [0.5, 0.5], 10.0, v=[0.3, 0.4])
        for _ in range(2):  # raised on every call, never memoized
            with pytest.raises(ValueError, match="residual service"):
                solve_rates(state, spec)
        assert not spec._rates_memo

    def test_switch_phase_portrait_rows(self):
        q2q7 = SWITCH.flow2_ingress, SWITCH.flow2_egress
        expected = {
            (0.4, 0.6): (0.1, 0.0),    # both below threshold
            (1.6, 0.6): (-0.5, 0.0),   # first bottleneck above
            (0.7, 1.5): (-0.5, 0.0),   # second bottleneck above
            (0.0, 1.5): (0.0, -0.5),   # first empty, second above
        }
        spec = switch_example_spec()
        for (a, b), want in expected.items():
            rv = solve_rates(settled_switch_state(a, b), spec)
            got = (rv.q_dot[q2q7[0]], rv.q_dot[q2q7[1]])
            assert got == pytest.approx(want, abs=1e-12)

    def test_switch_sliding_pins_first_bottleneck(self):
        spec = switch_example_spec()
        rv = solve_rates(settled_switch_state(1.0, 0.4), spec)
        assert rv.admit[1] == pytest.approx(0.5, abs=1e-12)
        assert rv.q_dot[SWITCH.flow2_ingress] == 0.0

    def test_switch_sliding_max_admission_drifts_inward(self):
        # second bottleneck pinned, first interior: the deterministic
        # selection admits at the full rate and the first queue climbs
        spec = switch_example_spec()
        rv = solve_rates(settled_switch_state(0.5, 1.0), spec)
        assert rv.admit[1] == pytest.approx(0.6, abs=1e-12)
        assert rv.q_dot[SWITCH.flow2_ingress] == pytest.approx(0.1, abs=1e-12)
        assert rv.q_dot[SWITCH.flow2_egress] == 0.0

    def test_switch_corner_absorbing(self):
        spec = switch_example_spec()
        rv = solve_rates(settled_switch_state(1.0, 1.0), spec)
        assert rv.admit == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)
        assert not any(rv.q_dot)

    def test_work_conservation_of_rates(self):
        spec = switch_example_spec()
        for st_ in [settled_switch_state(0.3, 0.9), settled_switch_state(0.0, 1.2)]:
            rv = solve_rates(st_, spec)
            for i in range(spec.num_stations):
                if rv.idle[i] > 1e-9:
                    backlog = sum(st_.q[k] for k in spec.station_classes(i))
                    assert backlog <= 1e-9

    def test_fairness_of_rates(self):
        spec = switch_example_spec()
        w = spec.class_weights()
        for st_ in [settled_switch_state(0.7, 0.8), settled_switch_state(0.0, 1.2)]:
            rv = solve_rates(st_, spec)
            for i in range(spec.num_stations):
                fed = [k for k in spec.station_classes(i) if k not in spec.idle_slots]
                backlogged = [k for k in fed if st_.q[k] > 1e-9]
                for a in backlogged:
                    for b in backlogged:  # equal normalized rates
                        assert rv.depart[a] / w[a] == pytest.approx(
                            rv.depart[b] / w[b], abs=1e-12
                        )
                    for b in fed:  # and no empty queue does better
                        assert rv.depart[a] / w[a] >= rv.depart[b] / w[b] - 1e-12

    def test_empty_queue_passthrough(self):
        # empty downstream queue with input below its share departs at the
        # input rate and stays empty
        spec = tandem_spec(0.3, 0.8, 0.5)
        rv = solve_rates(FluidState.initial(spec, [0.0, 0.0], 1.0), spec)
        assert rv.depart == pytest.approx([0.3, 0.3], abs=1e-12)
        assert not any(rv.q_dot)

    def test_weighted_shares(self):
        spec = build_network(
            [(0,), (0,)],
            arrival=[EXP(2.0), EXP(2.0)],
            service=[[EXP(1.0)], [EXP(1.0)]],
            weights=[3, 1],
            threshold_base=10.0,
        )
        rv = solve_rates(FluidState.initial(spec, [5.0, 5.0], 1.0), spec)
        assert rv.depart == pytest.approx([0.75, 0.25], abs=1e-12)


class TestIntegrate:
    def test_zero_horizon_single_breakpoint(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = integrate(FluidState.initial(spec, [0.4, 0.2], 1.0), spec, 0.0)
        assert len(traj.times) == 1

    def test_unabsorbed_path_ends_at_the_horizon(self):
        # from this start t + (horizon - t) at the last step rounds one ulp
        # above the horizon, to 2.3765734499186957
        spec = switch_example_spec()
        q = (0, 0.05333451823564195, 0, 0, 0, 0, 2.714192914760785, 0)
        horizon = 2.3765734499186952
        traj = integrate(FluidState.initial(spec, q, 1.0), spec, horizon)
        assert traj.absorbed_at is None
        assert traj.rows[-1][0] == traj.horizon == horizon
        assert traj.state_at(horizon).q.tolist() == traj.q[-1].tolist()

    @pytest.mark.parametrize("t", [-0.5, 5.5])
    def test_state_at_outside_horizon_rejected(self, t):
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = integrate(FluidState.initial(spec, [0.4, 0.2], 1.0), spec, 5.0)
        with pytest.raises(ValueError, match="^t outside the integrated horizon$"):
            traj.state_at(t)

    def test_tandem_absorbed_at_zero_hbar(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = integrate(FluidState.initial(spec, [2.5, 0.7], 1.0), spec, 50.0)
        assert traj.q[-1] == pytest.approx([0.0, 1.0], abs=1e-9)
        assert traj.absorbed_at == pytest.approx(4.4, abs=1e-9)

    def test_analytic_breakpoints(self):
        # from (2.5, 0.7): q2 crosses the threshold at t=1, q1 re-crosses it
        # at 1.875, q1 empties at 3.125, q2 drains to the threshold at 4.4
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = integrate(FluidState.initial(spec, [2.5, 0.7], 1.0), spec, 50.0)
        assert traj.times[:5] == pytest.approx([0.0, 1.0, 1.875, 3.125, 4.4], abs=1e-9)

    def test_grid_absorption(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        for q1 in np.linspace(0.0, 3.0, 4):
            for q2 in np.linspace(0.0, 3.0, 4):
                traj = integrate(FluidState.initial(spec, [q1, q2], 1.0), spec, 60.0)
                assert traj.absorbed_at is not None
                assert traj.q[-1] == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_equal_rates_slow_approach(self):
        # equal service rates: from (h, h+eps) the minimal set is reached
        # no sooner than h/mu
        spec = tandem_spec(1.0, 0.5, 0.5)
        from qnet.absorption import _first_hit, tandem_tilde_set

        traj = integrate(FluidState.initial(spec, [1.0, 1.1], 1.0), spec, 50.0)
        hit = _first_hit(traj, tandem_tilde_set(), 1e-6)
        assert hit >= 1.0 / 0.5

    def test_conservation_at_breakpoints(self):
        spec = switch_example_spec()
        state = settled_switch_state(2.4, 0.3)
        traj = integrate(state, spec, 30.0)
        P = spec.routing_matrix.T.astype(float)
        lam_embed = np.zeros((len(traj.times), spec.num_classes))
        for f in range(spec.num_flows):
            lam_embed[:, spec.flow_classes(f)[0]] = traj.cum_admit[:, f]
        arrivals = traj.cum_depart @ P.T + lam_embed
        residual = np.abs(traj.q - (traj.q[0] + arrivals - traj.cum_depart))
        assert residual.max() <= 1e-9
        assert np.abs(traj.cum_arrival - arrivals).max() <= 1e-9

    def test_rates_bounded_along_trajectory(self):
        spec = switch_example_spec()
        traj = integrate(settled_switch_state(1.9, 2.3), spec, 30.0)
        alpha = spec.arrival_rates
        assert (traj.admit >= -1e-12).all()
        assert (traj.admit <= alpha + 1e-12).all()
        assert (traj.q >= -1e-12).all()
        assert (traj.idle >= -1e-12).all()

    def test_arrival_clock_breakpoint(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = integrate(FluidState.initial(spec, [0.0, 0.0], 1.0, u=[2.0]), spec, 10.0)
        assert 2.0 in [round(t, 9) for t in traj.times]
        assert traj.u[-1][0] == 0.0

    def test_one_row_per_breakpoint_and_one_for_the_hold(self):
        # horizon 0 records the start alone; a stationary start adds the end
        # of its hold; every row carries the rates solved at its state
        spec = tandem_spec(1.0, 0.8, 0.5)
        start = FluidState.initial(spec, [0.0, 1.0], 1.0)
        rv = solve_rates(start, spec)
        for horizon, times in [(0.0, [0.0]), (25.0, [0.0, 25.0])]:
            traj = integrate(start, spec, horizon)
            assert traj.times.tolist() == times
            for name, rates in [("admit", rv.admit), ("depart", rv.depart),
                                ("busy", rv.busy), ("idle", rv.idle)]:
                assert np.array_equal(getattr(traj, name), [rates] * len(times)), name
            for name, rates in [("cum_arrival", rv.arrival), ("cum_depart", rv.depart),
                                ("cum_admit", rv.admit)]:
                assert np.array_equal(getattr(traj, name), [np.asarray(rates) * t for t in times]), name
            assert np.array_equal(traj.q, [start.q] * len(times))

    def test_absorbing_state_stays(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = integrate(FluidState.initial(spec, [0.0, 1.0], 1.0), spec, 25.0)
        assert traj.absorbed_at == 0.0
        assert np.abs(traj.q - [0.0, 1.0]).max() == 0.0

    def test_regime_classification(self):
        def status(state):
            atol, empty, at_thr, above = _classify(state.q.tolist(), state.hbar)
            return atol, tuple(
                "empty" if e else "above_threshold" if a else "at_threshold" if t else "interior"
                for e, t, a in zip(empty, at_thr, above)
            )

        spec = tandem_spec(1.0, 0.8, 0.5)
        state = FluidState.initial(spec, [0.0, 0.5], 1.0, u=[1.0])
        atol, queues = status(state)
        assert queues == ("empty", "interior")
        assert (state.u <= atol).tolist() == [False]  # arrival clock not yet active
        assert status(FluidState.initial(spec, [1.0, 2.0], 1.0))[1] == (
            "at_threshold", "above_threshold"
        )


class TestDepartureRates:
    def test_tandem_point(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        flow = qnet.departure_rates_at(FluidState.initial(spec, [0.0, 1.0], 1.0), spec)
        assert flow == pytest.approx([0.5], abs=1e-12)

    def test_switch_inside_set(self):
        spec = switch_example_spec()
        for q2, q7 in [(0.5, 1.0), (1.0, 0.3), (1.0, 1.0), (0.25, 1.1)]:
            flow = qnet.departure_rates_at(settled_switch_state(q2, q7), spec)
            assert flow == pytest.approx([0.5, 0.5, 0.5], abs=1e-12)

    def test_rates_of_the_egress_classes(self):
        spec = switch_example_spec()
        assert spec.egress.tolist() == [SWITCH.flow1_egress, SWITCH.flow2_egress, SWITCH.flow3_egress]
        for state in (settled_switch_state(0.5, 1.0), FluidState.initial(spec, [0.4, 2.0] + [0.0] * 6, 1.0)):
            want = np.asarray(solve_rates(state, spec).depart)[spec.egress]
            assert list(qnet.departure_rates_at(state, spec)) == want.tolist()

    def test_all_idle_network(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        flow = qnet.departure_rates_at(
            FluidState.initial(spec, [0.0, 0.0], 1.0, u=[5.0]), spec
        )
        assert flow == pytest.approx([0.0], abs=1e-12)


def test_breakpoint_budget_guard(monkeypatch):
    from qnet.fluid import ZenoError

    monkeypatch.setattr(qnet.fluid, "_MAX_BREAKPOINTS", 3)
    spec = tandem_spec(1.0, 0.8, 0.5)
    with pytest.raises(ZenoError, match="more than 3 breakpoints"):
        integrate(FluidState.initial(spec, [2.5, 0.7], 1.0), spec, 50.0)


def test_zeno_window_guard(monkeypatch):
    # a clock and a gate that run out 3e-10 apart give breakpoints at 3e-10
    # and 6e-10: two within a span below 1e-12 * horizon trip a window of 2
    from qnet.fluid import ZenoError

    spec = tandem_spec(1.0, 0.8, 0.5)
    state = FluidState.initial(spec, [0.0, 0.0], 1.0, u=[3e-10], v=[6e-10, 0.0])
    assert len(integrate(state, spec, 1000.0).rows) == 7
    monkeypatch.setattr(qnet.fluid, "_ZENO_WINDOW", 2)
    with pytest.raises(ZenoError, match=r"^2 breakpoints within 3\.000e-10 time units at t=6e-10$"):
        integrate(state, spec, 1000.0)


@pytest.mark.parametrize("horizon", [np.inf, np.nan])
def test_horizon_not_finite_rejected(horizon):
    # an infinite horizon used to run to the breakpoint budget on nan times
    spec = tandem_spec(1.0, 0.8, 0.5)
    with pytest.raises(ValueError, match="horizon must be nonnegative and finite"):
        integrate(FluidState.initial(spec, [2.5, 0.7], 1.0), spec, horizon)


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.inf, np.nan])
def test_initial_hbar_not_positive_and_finite_rejected(hbar):
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        FluidState.initial(tandem_spec(1.0, 0.8, 0.5), [0.5, 0.5], hbar)


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.inf, np.nan])
def test_solve_rates_hbar_not_positive_and_finite_rejected(hbar):
    # a state built directly used to get rates at hbar 0, -1 and nan: here
    # no admission, every queue taken as above the threshold
    state = settled_switch_state(0.5, 0.5)
    with pytest.raises(ValueError, match="^hbar must be positive and finite$"):
        solve_rates(FluidState(state.q, state.u, state.v, hbar), switch_example_spec())


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.inf, np.nan])
def test_integrate_hbar_not_positive_and_finite_rejected(hbar):
    # a state built directly at hbar 0 used to drain every queue, absorbed
    # at t = 2 in 5 rows
    state = settled_switch_state(0.5, 0.5)
    with pytest.raises(ValueError, match="^hbar must be positive and finite$"):
        integrate(FluidState(state.q, state.u, state.v, hbar), switch_example_spec(), 10.0)


@pytest.mark.parametrize(
    "q, u, v",
    [([np.nan, 0.0], None, None), ([np.inf, 0.0], None, None),
     ([0.0, 0.0], [np.nan], None), ([0.0, 0.0], [np.inf], None),
     ([0.0, 0.0], None, [np.inf, 0.0]), ([0.0, 0.0], None, [np.nan, 0.0])],
    ids=["q_nan", "q_inf", "u_nan", "u_inf", "v_inf", "v_nan"],
)
def test_initial_coordinates_not_finite_rejected(q, u, v):
    # these used to end in a ZenoError at t=nan (q nan), a trajectory ending
    # at inf (q inf), an absorption as if u were 0 (u nan) or two
    # breakpoints and no error (v inf)
    with pytest.raises(ValueError, match="fluid coordinates must be nonnegative and finite"):
        FluidState.initial(tandem_spec(1.0, 0.8, 0.5), q, 1.0, u=u, v=v)


@pytest.mark.parametrize("u, v", [([0.5, 0.5], None), (None, [0.3])], ids=["u_long", "v_short"])
def test_initial_clocks_wrong_length_rejected(u, v):
    # a second clock on the one-flow tandem used to be ignored, and a short
    # v ended in an IndexError inside integrate
    with pytest.raises(ValueError, match="q and v must have one entry per class, u one per flow"):
        FluidState.initial(tandem_spec(1.0, 0.8, 0.5), [0.0, 0.0], 1.0, u=u, v=v)


@pytest.mark.parametrize("k, coord", [(SWITCH.idle_a, "q"), (SWITCH.idle_b, "v")])
def test_initial_mass_at_idle_slot_rejected(k, coord):
    # fluid at an idle slot used to stay there at every breakpoint
    x = np.zeros(8)
    x[k] = 2.0
    q, v = (x, None) if coord == "q" else (np.zeros(8), x)
    with pytest.raises(ValueError, match=r"q and v must be 0 at the idle slots \[3, 5\]"):
        FluidState.initial(switch_example_spec(), q, 1.0, v=v)


def test_cross_flow_sliding_coupling():
    # two pinned flows interacting through a shared station: flow 1's
    # admission bounds its pass-through rate into station 0, which sets
    # the service left for flow 0's pinned queue there
    from qnet.distributions import DistributionSpec as D

    def make(mu_b1):
        return build_network(
            [(0,), (1, 0)],
            arrival=[D.exponential(0.9), D.exponential(0.9)],
            service=[[D.exponential(1.0)], [D.exponential(mu_b1), D.exponential(1.0)]],
            threshold_base=1.0,
        )

    spec = make(0.7)
    rv = solve_rates(FluidState.initial(spec, [1.0, 1.0, 0.0], 1.0), spec)
    assert rv.admit == pytest.approx([0.5, 0.7], abs=1e-12)
    assert rv.q_dot == pytest.approx([0.0, 0.0, 0.2], abs=1e-12)

    # slow upstream: the empty pass-through queue needs less than its fair
    # share, and the surplus goes to the other flow's pinned queue
    spec2 = make(0.3)
    rv2 = solve_rates(FluidState.initial(spec2, [1.0, 1.0, 0.0], 1.0), spec2)
    assert rv2.admit == pytest.approx([0.7, 0.3], abs=1e-12)
    assert not any(rv2.q_dot)


def test_weighted_shares_end_to_end():
    # two saturated flows at one station with weights 2:1 settle at the
    # weighted fair shares in the fluid model, and the simulator's
    # long-run rates approach them
    from qnet.distributions import DistributionSpec as D

    spec = build_network(
        [(0,), (0,)],
        arrival=[D.exponential(1.0), D.exponential(1.0)],
        service=[[D.exponential(1.0)], [D.exponential(1.0)]],
        weights=[2, 1],
        threshold_base=1.0,
    )
    rv = solve_rates(FluidState.initial(spec, [1.0, 1.0], 1.0), spec)
    assert rv.admit == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
    assert not any(rv.q_dot)
    traj = integrate(FluidState.initial(spec, [0.0, 0.0], 1.0), spec, 30.0)
    assert traj.absorbed_at == pytest.approx(3.0, abs=1e-9)
    assert traj.q[-1] == pytest.approx([1.0, 1.0], abs=1e-9)
    trace = qnet.run(spec, 100, seed=0, horizon=2e4, invariant_checks="off")
    assert trace.flow_depart_rates == pytest.approx([2 / 3, 1 / 3], abs=0.03)


def test_surplus_goes_to_the_saturated_flow():
    # a flow offering less than its fair share is served at its input
    # rate; the freed capacity raises the other flow's admission
    from qnet.distributions import DistributionSpec as D

    spec = build_network(
        [(0,), (0,)],
        arrival=[D.exponential(1.2), D.exponential(0.3)],
        service=[[D.exponential(1.0)], [D.exponential(1.0)]],
        threshold_base=1.0,
    )
    rv = solve_rates(FluidState.initial(spec, [1.0, 0.0], 1.0), spec)
    assert rv.admit == pytest.approx([0.7, 0.3], abs=1e-12)
    traj = integrate(FluidState.initial(spec, [0.0, 0.0], 1.0), spec, 30.0)
    assert traj.q[-1] == pytest.approx([1.0, 0.0], abs=1e-9)
    trace = qnet.run(spec, 100, seed=0, horizon=2e4, invariant_checks="off")
    assert trace.flow_depart_rates == pytest.approx([0.7, 0.3], abs=0.03)


@st.composite
def fluid_cases(draw, max_weight=3):
    d = draw(st.integers(2, 4))
    F = draw(st.integers(1, 3))
    paths, arrival, service, weights = [], [], [], []
    for _ in range(F):
        length = draw(st.integers(1, min(3, d)))
        perm = draw(st.permutations(range(d)))
        paths.append(tuple(perm[:length]))
        arrival.append(EXP(draw(st.floats(0.2, 1.7))))
        service.append([EXP(draw(st.floats(0.3, 2.3))) for _ in range(length)])
        weights.append(draw(st.integers(1, max_weight)))
    spec = build_network(
        paths, arrival=arrival, service=service, weights=weights,
        threshold_base=1.0, num_stations=d,
    )
    K = spec.num_classes
    hbar = draw(st.floats(0.5, 2.5))
    q = []
    for _ in range(K):
        mode = draw(st.sampled_from(["zero", "at", "in", "above"]))
        q.append({
            "zero": 0.0,
            "at": hbar,
            "in": hbar * draw(st.floats(0.05, 0.95)),
            "above": hbar * draw(st.floats(1.05, 3.0)),
        }[mode])
    u = [draw(st.floats(0.0, 1.0)) if draw(st.booleans()) else 0.0 for _ in range(F)]
    v = [0.0] * K
    for i in range(d):
        fed = [k for k in spec.station_classes(i) if k not in spec.idle_slots]
        if fed and draw(st.booleans()):
            v[draw(st.sampled_from(fed))] = draw(st.floats(0.05, 1.0))
    return spec, FluidState.initial(spec, q, hbar, u=u, v=v), draw(st.floats(2.0, 10.0))


@settings(max_examples=40, deadline=None)
@given(fluid_cases())
def test_rate_invariants_on_random_networks(case):
    spec, state, horizon = case
    rv = solve_rates(state, spec)
    alpha = spec.arrival_rates
    admit, idle, depart = np.asarray(rv.admit), np.asarray(rv.idle), np.asarray(rv.depart)
    assert (admit >= -1e-12).all() and (admit <= alpha + 1e-12).all()
    assert (idle >= -1e-12).all() and (depart >= -1e-12).all()
    w = spec.class_weights()
    for i in range(spec.num_stations):
        members = [k for k in spec.station_classes(i) if k not in spec.idle_slots]
        if rv.idle[i] > 1e-9:  # work conservation
            assert sum(state.q[k] for k in members) <= 1e-9
        if any(state.v[k] > 1e-9 for k in members):
            continue  # a residual service blocks the whole station
        ks = [k for k in members if state.q[k] > 1e-9]
        for a in ks:
            for b in ks:  # weighted fairness among backlogged classes
                assert abs(rv.depart[a] / w[a] - rv.depart[b] / w[b]) <= 1e-9
    for k in range(spec.num_classes):
        if state.v[k] > 1e-9:
            assert rv.depart[k] == 0.0
    # integrate and check conservation at every breakpoint
    traj = integrate(state, spec, horizon)
    assert traj.horizon == float(horizon)
    assert (traj.q >= -1e-9).all()
    assert conservation_residual(spec, traj) <= 1e-9


def test_fair_rates_by_progressive_filling():
    assert fair_rates(switch_example_spec()) == (0.5, 0.5, 0.5)
    assert fair_rates(tandem_spec(1.0, 0.8, 0.5)) == (0.5,)
    assert fair_rates(tandem_spec(0.3, 0.8, 0.5)) == (0.3,)  # below every capacity
    # one station at rate 1: weights 2:1 share it 2:1, and a flow frozen
    # at its arrival rate leaves the rest to the other
    shared = [[EXP(1.0)], [EXP(1.0)]]
    assert fair_rates(build_network([(0,), (0,)], arrival=[EXP(5.0)] * 2, service=shared,
                                    weights=[2, 1])) == pytest.approx((2 / 3, 1 / 3), abs=1e-15)
    assert fair_rates(build_network([(0,), (0,)], arrival=[EXP(0.25), EXP(5.0)],
                                    service=shared)) == (0.25, 0.75)
    # flow 1 saturates station 1 at level 0.25 (4 jobs per unit of weight
    # at rate 1), and flow 0 then fills the rest of station 0
    spec = build_network([(0,), (0, 1)], arrival=[EXP(5.0)] * 2,
                         service=[[EXP(1.0)], [EXP(1.0), EXP(0.25)]])
    assert fair_rates(spec) == pytest.approx((0.75, 0.25), abs=1e-15)


@settings(max_examples=500, deadline=None)
@given(fluid_cases(max_weight=20))
def test_absorbed_trajectories_end_at_the_fair_rates(case):
    # the measured half of fair_rates' claim: wherever integrate absorbs,
    # weighted and cyclic networks included, from any start, its final
    # departure rates are the fair rates.  Starts that raise FluidRateError
    # or have not absorbed by t = 3000 are noted and not counted
    spec, state, _horizon = case
    try:
        traj = integrate(state, spec, 3000.0)
    except FluidRateError:
        event("raised FluidRateError")
        assume(False)
    if traj.absorbed_at is None:
        event("not absorbed by t = 3000")
        assume(False)
    final = traj.rows[-1][4].flow_depart
    assert max(abs(x - y) for x, y in zip(final, fair_rates(spec))) <= 1e-12


def reference_integrate(state0, spec, horizon):
    """integrate as it was when each row also held the rates solved there
    and the cumulative flows: its loop, verbatim, returning those rows (in
    the order of TRAJECTORY_COLUMNS) and absorbed_at."""
    from qnet.fluid import _MAX_BREAKPOINTS, _RATE_EPS, _ZENO_WINDOW, ZenoError

    if not 0 <= horizon < np.inf:
        raise ValueError("horizon must be nonnegative and finite")
    horizon = float(horizon)  # the time of the last row, whose entries are floats
    hbar = state0.hbar
    atol = 1e-10 * max(1.0, hbar)   # the tolerance of _classify
    lo, hi = hbar - atol, hbar + atol

    q, u, v = (np.asarray(x, dtype=float).tolist() for x in (state0.q, state0.u, state0.v))
    K, F = len(q), len(u)

    # one row per breakpoint, in the order of TRAJECTORY_COLUMNS: its time,
    # state, the rates solved there and the cumulative flows
    rows = []
    cum = ([0.0] * K, [0.0] * K, [0.0] * F)  # arrivals, departures, admissions
    absorbed_at = None

    t = 0.0
    while True:
        rv = solve_rates(FluidState(np.array(q), np.array(u), np.array(v), hbar), spec)
        admit, depart, busy, idle, qdot = rv.admit, rv.depart, rv.busy, rv.idle, rv.q_dot
        rates = (admit, depart, busy, idle)
        rows.append((t, q, u, v, *rates, *cum))

        # the boundary each moving coordinate reaches next; solve_rates has
        # classified the state, so only the moving queues are tested here
        candidates = []
        for k in rv.moving:
            x, r = q[k], qdot[k]
            if r < 0.0 and x > atol:
                candidates.append(x / -r)
                if x >= hi:
                    candidates.append((x - hbar) / -r)
            elif r > 0.0 and x < lo:
                candidates.append((hbar - x) / r)
        waiting = [x for x in u if x > atol]
        gated = [k for k in range(K) if v[k] > atol]
        candidates += waiting + [v[k] / busy[k] for k in gated if busy[k] > _RATE_EPS]

        stationary = not (rv.moving or waiting or gated)
        if stationary and absorbed_at is None:
            absorbed_at = t
        remaining = horizon - t
        if remaining <= 0:
            break
        flows = (rv.arrival, depart, admit)
        if stationary:
            # hold the state to the horizon in one segment
            cum = tuple([c + r * remaining for c, r in zip(cs, rs)] for cs, rs in zip(cum, flows))
            rows.append((horizon, q, u, v, *rates, *cum))
            break
        candidates.append(remaining)
        dt = min(candidates)

        # advance one segment; snap coordinates that landed on a boundary,
        # within the same tolerance that classifies them (u and v run down
        # to 0, so a value below the tolerance, negative or not, becomes 0)
        q = [0.0 if abs(y := x + r * dt) < atol else y for x, r in zip(q, qdot)]
        q = [hbar if abs(x - hbar) < atol else x for x in q]
        u = [0.0 if (y := x - dt) < atol else y for x in u]
        v = [0.0 if (y := x - b * dt) < atol else y for x, b in zip(v, busy)]
        cum = tuple([c + r * dt for c, r in zip(cs, rs)] for cs, rs in zip(cum, flows))
        t = horizon if dt == remaining else t + dt  # t + remaining can round past it

        # the breakpoint at t is the (len(rows) + 1)-th
        if len(rows) >= _MAX_BREAKPOINTS:
            raise ZenoError(f"more than {_MAX_BREAKPOINTS} breakpoints before t={t:.6g}")
        if len(rows) >= _ZENO_WINDOW:
            span = t - rows[1 - _ZENO_WINDOW][0]
            if span < 1e-12 * max(1.0, horizon):
                raise ZenoError(
                    f"{_ZENO_WINDOW} breakpoints within {span:.3e} time units at t={t:.6g}"
                )

    return tuple(rows), absorbed_at


def eager_columns(rows):
    """The columns as integrate once built them from its rows, all at its
    end: the times by np.array, the rest by one np.fromiter each."""
    times, *columns = zip(*rows)
    n = len(times)
    return [np.array(times)] + [
        np.fromiter(itertools.chain.from_iterable(column), float, n * len(column[0])).reshape(n, len(column[0]))
        for column in columns
    ]


@st.composite
def column_cases(draw):
    """A case of fluid_cases, its zeros maybe signed -0.0, and maybe
    rescaled to hbar 1e-10 or 2e-10, where a queue of at most 1e-10 is
    both empty and at the threshold."""
    spec, state, horizon = draw(fluid_cases())
    q, u, v, hbar = state.q, state.u, state.v, state.hbar
    scale = draw(st.sampled_from([None, 1e-10, 2e-10]))
    if scale is not None:
        q, hbar = q / hbar * scale, scale
    if draw(st.booleans()):
        q, u, v = (np.where(x == 0.0, -0.0, x) for x in (q, u, v))
    return spec, FluidState.initial(spec, q, hbar, u=u, v=v), horizon


def tandem_case(q, u, v, hbar=1.0):
    spec = tandem_spec(1.0, 0.8, 0.5)
    return spec, FluidState.initial(spec, q, hbar, u=u, v=v), 20.0


@settings(max_examples=60, deadline=None)
@given(column_cases())
@example(tandem_case([2.0, 0.5], [0.7], [0.3, 0.0]))     # v runs out first
@example(tandem_case([2.0, 0.5], [0.3], [0.7, 0.0]))     # u runs out first
@example(tandem_case([0.0, -0.0], [-0.0], [0.0, -0.0]))  # signed zeros
@example(tandem_case([-0.0, 0.5], [1.5], [-0.0, 0.4]))
@example(tandem_case([2e-10, 0.0], [0.7], [0.3, 0.0], hbar=1e-10))
@example(tandem_case([1e-10, 3e-10], [0.0], [0.2, 0.0], hbar=2e-10))
def test_trajectory_columns_match_the_eager_build(case):
    # each column is built from the rows on its first read, equal bit for
    # bit to the columns of the reference loop's rows, read-only, and built
    # once; each row holds the memo's RateVector and the step advanced
    spec, state, horizon = case
    try:
        want_rows, want_absorbed = reference_integrate(state, spec, horizon)
    except Exception as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            integrate(state, spec, horizon)
        return
    traj = integrate(state, spec, horizon)
    assert traj.absorbed_at == want_absorbed
    assert len(traj.rows) == len(want_rows)
    for name, want in zip(TRAJECTORY_COLUMNS, eager_columns(want_rows)):
        column = getattr(traj, name)
        assert (column.dtype, column.shape) == (want.dtype, want.shape), name
        assert column.tobytes() == want.tobytes(), name
        assert getattr(traj, name) is column
        with pytest.raises(ValueError, match="read-only"):
            column[-1] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(traj, name, want)
    assert traj.horizon == traj.times[-1]
    for t, q, u, v, rates, step in traj.rows:
        assert rates is solve_rates(FluidState(np.array(q), np.array(u), np.array(v), traj.hbar), spec)
    assert traj.rows[-1][5] == 0.0


def test_copied_trajectories_are_read_only_and_equal():
    # a pickled or copied trajectory carries the rows, not the columns read
    # before: it builds its own, read-only, and equals the original by its
    # numbers, RateVectors included
    spec = switch_example_spec()
    traj = integrate(FluidState.initial(spec, np.zeros(spec.num_classes), 1.0), spec, 30.0)
    columns = {name: getattr(traj, name) for name in TRAJECTORY_COLUMNS}
    for copied in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj), copy.copy(traj)):
        assert copied == traj
        assert not set(TRAJECTORY_COLUMNS) & set(vars(copied))
        for name, want in columns.items():
            column = getattr(copied, name)
            assert column.tobytes() == want.tobytes(), name
            with pytest.raises(ValueError, match="read-only"):
                column[-1] = 1.0
    assert traj.rows[0][4] == dataclasses.replace(traj.rows[0][4])
    assert traj.rows[0][4] != traj.rows[-1][4]
    assert traj != integrate(FluidState.initial(spec, np.zeros(spec.num_classes), 1.0), spec, 31.0)


@settings(max_examples=40, deadline=None)
@given(fluid_cases())
def test_memo_hits_match_solves_on_a_new_spec(case):
    # integrate leaves the regimes along the path in the memo, so every
    # breakpoint state is then a hit; each hit gives the rates of a solve
    # on a new spec, whose memo starts empty, bit for bit, as Python floats
    from qnet import fluid

    spec, state, horizon = case
    traj = integrate(state, spec, horizon)
    states = [FluidState(q, u, v, traj.hbar) for q, u, v in zip(traj.q, traj.u, traj.v)]
    entries = len(spec._rates_memo)
    solve_regime, misses = fluid._solve_regime, []

    def counted(*args):
        misses.append(1)
        return solve_regime(*args)

    fluid._solve_regime = counted
    try:
        hits = [solve_rates(st_, spec) for st_ in states]
    finally:
        fluid._solve_regime = solve_regime
    assert not misses and len(spec._rates_memo) == entries
    for st_, hit in zip(states, hits):
        new = dataclasses.replace(spec)
        assert not new._rates_memo
        fresh = solve_rates(st_, new)
        for name in ("admit", "depart", "busy", "idle", "arrival", "q_dot", "flow_depart"):
            assert np.array(getattr(hit, name)).tobytes() == np.array(getattr(fresh, name)).tobytes()
            assert all(type(x) is float for x in getattr(hit, name))


class TestRateMemo:
    def test_one_regime_one_entry(self, monkeypatch):
        # interior ingress queue, second queue at the threshold with its
        # service gate closed, arrival clock waiting: only the masks agree
        from qnet import fluid

        misses = []
        solve_regime = fluid._solve_regime

        def counted(*args):
            misses.append(1)
            return solve_regime(*args)

        monkeypatch.setattr(fluid, "_solve_regime", counted)
        spec = tandem_spec(1.0, 0.8, 0.5)
        a = solve_rates(FluidState.initial(spec, [0.3, 1.0], 1.0, u=[0.2], v=[0.0, 0.4]), spec)
        b = solve_rates(FluidState.initial(spec, [2.0, 2.5], 2.5, u=[0.9], v=[0.0, 1.3]), spec)
        assert len(misses) == 1 and len(spec._rates_memo) == 1 and a is b
        assert list(a.admit) == list(b.admit) == [0.0]
        assert list(a.depart) == list(b.depart) == [0.8, 0.0]
        # an empty queue behind a closed gate is backlogged as a nonempty
        # one is: the two states differ in their key, not in their regime
        c = solve_rates(FluidState.initial(spec, [0.3, 0.0], 1.0, u=[0.2], v=[0.0, 0.4]), spec)
        d = solve_rates(FluidState.initial(spec, [0.3, 0.5], 1.0, u=[0.2], v=[0.0, 0.4]), spec)
        assert len(misses) == 2 and c is d and c is not a
        assert len(spec._rates_memo) == 3

    def test_returned_arrays_do_not_reach_the_memo(self):
        # the memo's RateVector is returned as it is, and its rates are
        # tuples, so a write to any of them raises rather than changing
        # later answers
        spec = tandem_spec(1.0, 0.8, 0.5)
        state = FluidState.initial(spec, [0.0, 1.0], 1.0)
        rv = solve_rates(state, spec)
        want = {f.name: list(getattr(rv, f.name)) for f in dataclasses.fields(rv) if f.init}
        for name in want:
            with pytest.raises(TypeError):
                getattr(rv, name)[0] = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rv.admit = np.zeros(1)
        again = solve_rates(state, spec)
        assert again is rv
        assert {name: list(getattr(again, name)) for name in want} == want
        assert list(again.admit) == [pytest.approx(0.5, abs=1e-12)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rv, "moving", ())

    def test_band_key_at_every_band_edge(self):
        # queues at and one ulp around each edge of the bands, gates and
        # clocks at and around the tolerance, at thresholds on both sides
        # of 1 and at 1e-10 and 2e-10, where the empty and threshold bands
        # overlap and touch: every state gets the one memo entry of its
        # _classify masks, on one spec for all thresholds, and that entry
        # equals a solve of the masks on a new spec bit for bit
        from qnet import fluid

        def masks_of(state):
            atol, empty, at_thr, above = _classify(state.q.tolist(), state.hbar)
            v = state.v.tolist()
            return (
                tuple(not e or x > atol for e, x in zip(empty, v)),
                tuple(x <= atol for x in v),
                tuple(x > atol for x in state.u.tolist()),
                tuple(above),
                tuple(at_thr),
            )

        spec = tandem_spec(1.0, 0.8, 0.5)
        entries = {}
        for hbar in (1.0, 1e-3, 1e6, 1e-10, 2e-10):
            atol = 1e-10 * max(1.0, hbar)
            edges = (0.0, atol, math.nextafter(atol, math.inf), hbar - atol, hbar, hbar + atol)
            around = [y for x in edges for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
            queues = {x.hex(): x for x in around + [-0.0]}.values()
            clocks = (0.0, atol, math.nextafter(atol, math.inf))
            for q0, q1, v0, v1, u0 in itertools.product(queues, queues, clocks, clocks, clocks):
                state = FluidState(np.array([q0, q1]), np.array([u0]), np.array([v0, v1]), hbar)
                rv = solve_rates(state, spec)
                assert entries.setdefault(masks_of(state), rv) is rv
        distinct = {id(rv) for rv in spec._rates_memo.values()}
        assert sorted(distinct) == sorted(id(rv) for rv in entries.values())
        for masks, rv in entries.items():
            fresh = fluid._solve_regime(dataclasses.replace(spec), *masks)
            for name in ("admit", "depart", "busy", "idle", "arrival", "q_dot", "flow_depart"):
                assert np.array(getattr(rv, name)).tobytes() == np.array(getattr(fresh, name)).tobytes()
            assert rv.moving == tuple(np.flatnonzero(rv.q_dot).tolist())

    def test_verify_C2_memoizes_one_entry_per_regime(self):
        from qnet.absorption import member_states, switch_equilibrium_set, verify_C2

        spec = switch_example_spec()
        eqset = switch_equilibrium_set(0.5)
        report = verify_C2(spec, eqset, 1.0, [0.5, 0.5, 0.5], per_piece=40, seed=4)
        assert report.max_deviation == 0.0 and len(report.flow_rates) == 82
        regimes = set()
        for st_ in member_states(eqset, 1.0, spec, per_piece=40, seed=4):
            atol, *masks = _classify(st_.q.tolist(), st_.hbar)
            empty, at_thr, above = map(np.array, masks)
            masks = (~empty | (st_.v > atol), st_.v <= atol, st_.u > atol, above, at_thr)
            regimes.add(np.concatenate(masks).tobytes())
        assert len(spec._rates_memo) == len(regimes) == 4


def conservation_residual(spec, traj):
    """Largest deviation from Q = Q(0) + A - D over the breakpoints, with
    A = P^T D + Lambda from the booked cumulative rates."""
    P = spec.routing_matrix.T.astype(float)
    lam = np.zeros((len(traj.times), spec.num_classes))
    for f in range(spec.num_flows):
        lam[:, spec.flow_classes(f)[0]] = traj.cum_admit[:, f]
    arrivals = traj.cum_depart @ P.T + lam
    return np.abs(traj.q - (traj.q[0] + arrivals - traj.cum_depart)).max()


def test_boundary_snap_keeps_conservation():
    # a boundary snap wider than the classification tolerance moves a queue
    # without booking the move in cum_*; here that left a residual of 1.24e-9
    spec = build_network(
        [(2,), (1, 2)],
        arrival=[EXP(1.1314834919312964), EXP(1.2355184546944642)],
        service=[[EXP(1.619653584918565)], [EXP(2.1603242064472505), EXP(0.5)]],
        weights=[3, 2],
        num_stations=3,
    )
    state = FluidState.initial(
        spec, np.zeros(3), 1.2970755389635882,
        u=[1e-9, 0.0], v=[0.0, 0.5022690945036961, 0.6245212672262583],
    )
    traj = integrate(state, spec, 2.8239740790996244)
    assert conservation_residual(spec, traj) <= 1e-9


# ---------------------------------------------------------------------------
# sliding admission roots


def bisection_root(spec, admit, f, backlogged, gate_open, pinned):
    """Oracle for the sliding root: the largest a in [0, alpha_f] with
    g(a) <= 0, by bisection down to adjacent floats, after the same
    full/no admission tests as the solver."""
    from qnet.fluid import _ROOT_TOL, _pinned_residual

    trial = list(admit)

    def g(a):
        trial[f] = a
        return _pinned_residual(spec, trial, backlogged, gate_open, pinned)[0]

    top = float(spec.alpha[f])
    if g(top) <= _ROOT_TOL:
        return top
    if g(0.0) > _ROOT_TOL:
        return 0.0
    lo, hi = 0.0, top
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def sliding_flows(state, spec):
    """Flows that take the sliding rate at ``state``: clock active, no
    queue above the threshold and one at it."""
    from qnet.fluid import _classify

    atol, _empty, at_thr, above = _classify(state.q.tolist(), state.hbar)
    return [
        f for f, ks in enumerate(spec.routes)
        if state.u[f] <= atol and not any(above[k] for k in ks) and any(at_thr[k] for k in ks)
    ]


class TestSlidingRoot:
    def test_switch_member_states_admit_exactly_half(self):
        from qnet.absorption import member_states, switch_equilibrium_set

        spec = switch_example_spec()
        states = member_states(switch_equilibrium_set(0.5), 1.0, spec, per_piece=20, seed=4)
        checked = 0
        for st_ in states:
            rv = solve_rates(st_, spec)
            for f in sliding_flows(st_, spec):
                if f == 1 and st_.q[SWITCH.flow2_ingress] < 1.0:
                    # only queue 7 pinned, behind the backlogged queue 2:
                    # the residual is flat at zero and flow 1 admits fully
                    assert rv.admit[f] == 0.6
                else:
                    assert rv.admit[f] == 0.5
                checked += 1
        # flows 0 and 2 slide in every member state, flow 1 on the edge piece
        assert checked >= 2 * len(states) + 20

    def test_allocate_calls_per_sliding_switch_solve(self, monkeypatch):
        # the bisection took 251 fixed points per solve on these states;
        # each state is solved on a new spec, whose rate memo is empty
        from qnet import fluid
        from qnet.absorption import member_states, switch_equilibrium_set

        calls = []
        allocate = fluid._allocate

        def counted(*args):
            calls.append(1)
            return allocate(*args)

        monkeypatch.setattr(fluid, "_allocate", counted)
        eqset = switch_equilibrium_set(0.5)
        states = member_states(eqset, 1.0, switch_example_spec(), per_piece=20, seed=4)
        for st_ in states + [settled_switch_state(1.0, 0.4), settled_switch_state(0.5, 1.0)]:
            calls.clear()
            solve_rates(st_, switch_example_spec())
            assert 0 < len(calls) <= 30

    def test_flat_at_zero_downstream_of_backlogged_queue(self):
        # equal service rates: the pinned second queue sees the first
        # queue's service rate, not the admission, so its residual is 0
        # for every admission
        spec = tandem_spec(0.9, 0.5, 0.5)
        rv = solve_rates(FluidState.initial(spec, [0.5, 1.0], 1.0), spec)
        assert rv.admit[0] == 0.9
        assert rv.q_dot == pytest.approx([0.4, 0.0], abs=1e-12)
        # both pinned: g(a) = max(a - 0.5, 0) is flat at zero on [0, 0.5]
        # and the root is the end of that stretch
        rv = solve_rates(FluidState.initial(spec, [1.0, 1.0], 1.0), spec)
        assert rv.admit[0] == pytest.approx(0.5, abs=1e-12)
        assert not any(rv.q_dot)

    def test_last_zero_on_piecewise_linear_functions(self):
        # the certificate of a point is the index of its piece; at a kink
        # the evaluation reports the piece on either side of it
        from qnet.fluid import _last_zero

        cases = [
            # (kinks, values, largest zero)
            ([0.0, 0.6], [-0.5, 0.1], 0.5),
            # flat at zero, then rising
            ([0.0, 0.3, 1.0], [0.0, 0.0, 1.4], 0.3),
            # a kink past the root next to the upper end
            ([0.0, 0.55, 0.6], [-0.5, 0.05, 0.55], 0.5),
            # below zero, flat at zero, then two rising pieces
            ([0.0, 0.2, 0.7, 0.75, 2.0], [-1.0, 0.0, 0.0, 0.5, 1.0], 0.7),
            # the upper end's line meets zero inside the flat stretch, so
            # g(x) = 0 there does not certify x without the piece test
            ([0.0, 0.5, 0.6, 1.0], [0.0, 0.0, 0.2, 0.6], 0.5),
        ]
        for (xs, ys, root), side in itertools.product(cases, ["left", "right"]):
            g, holds = piecewise_linear(xs, ys, side)
            assert _last_zero(g, xs[-1], g(xs[-1]), holds) == pytest.approx(root, abs=1e-12)

    def test_last_zero_step_guard(self, monkeypatch):
        from qnet import fluid

        # this function needs more steps than allowed here
        monkeypatch.setattr(fluid, "_ROOT_STEPS", 3)
        g, holds = piecewise_linear([0.0, 0.2, 0.7, 0.75, 2.0], [-1.0, 0.0, 0.0, 0.5, 1.0], "left")
        with pytest.raises(fluid.FluidRateError, match="root"):
            fluid._last_zero(g, 2.0, g(2.0), holds)

    def test_exact_roots_in_few_allocations(self, monkeypatch):
        # the switch corner and the equal-rate tandem at (1, 1) end a flat
        # stretch at zero; bisecting across it took 103 and 87 allocations
        from qnet import fluid
        from qnet.absorption import member_states, switch_equilibrium_set

        calls = []
        allocate = fluid._allocate

        def counted(*args):
            calls.append(1)
            return allocate(*args)

        monkeypatch.setattr(fluid, "_allocate", counted)
        spec = switch_example_spec()
        rv = solve_rates(settled_switch_state(1.0, 1.0), spec)
        assert list(rv.admit) == [0.5, 0.5, 0.5]
        assert len(calls) <= 25
        calls.clear()
        tandem = tandem_spec(0.9, 0.5, 0.5)
        rv = solve_rates(FluidState.initial(tandem, [1.0, 1.0], 1.0), tandem)
        assert list(rv.admit) == [0.5]
        assert len(calls) <= 25
        for st_ in member_states(switch_equilibrium_set(0.5), 1.0, spec, per_piece=20, seed=4):
            calls.clear()
            solve_rates(st_, switch_example_spec())  # a new spec: no memo hit
            assert 0 < len(calls) <= 15

    def test_mean_calls_per_member_state_solve(self, monkeypatch):
        # re-solving every sliding flow on every pass took 5.05 roots and
        # 11.05 allocations per solve on these states; a root is now solved
        # again only after another flow's admission moved.  Each state is
        # solved on a new spec, so the counts are the solver's, not the
        # memo's hit rate.
        from qnet import fluid
        from qnet.absorption import member_states, switch_equilibrium_set

        calls = {"_allocate": 0, "_solve_admit_root": 0}
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(fluid, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(fluid, name, counted)
        eqset = switch_equilibrium_set(0.5)
        states = member_states(eqset, 1.0, switch_example_spec(), per_piece=20, seed=4)
        for st_ in states:
            solve_rates(st_, switch_example_spec())
        assert calls["_solve_admit_root"] / len(states) <= 4.05
        assert calls["_allocate"] / len(states) <= 9.05

    def test_root_at_zero_behind_gated_queue(self):
        # the pinned second queue holds a residual service, so it departs
        # nothing and g(a) = a: the root is a = 0, where the evaluated
        # station sets tie with those of the rising piece above it
        spec = tandem_spec(1.0, 0.8, 0.5)
        rv = solve_rates(FluidState.initial(spec, [0.0, 1.0], 1.0, v=[0.0, 0.5]), spec)
        assert rv.admit[0] == 0.0
        assert not any(rv.q_dot)


def piecewise_linear(xs, ys, side):
    """The interpolant of (xs, ys) as a root-solver evaluation with its
    slope and piece, and the certificate test for that piece."""
    slopes = np.diff(ys) / np.diff(xs)

    def g(a):
        i = min(max(int(np.searchsorted(xs, a, side=side)) - 1, 0), len(slopes) - 1)
        return float(np.interp(a, xs, ys)), float(slopes[i]), (i, a)

    def holds(piece, other):
        i, a = piece[0], other[1]
        return xs[i] - 1e-12 <= a <= xs[i + 1] + 1e-12

    return g, holds


@settings(max_examples=40, deadline=None)
@given(fluid_cases())
def test_sliding_root_matches_bisection_oracle(case):
    from qnet import fluid

    spec, state, _horizon = case
    solve = fluid._solve_admit_root
    gaps = []

    def checked(spec_, admit, f, backlogged, gate_open, pinned):
        a = solve(spec_, admit, f, backlogged, gate_open, pinned)
        gaps.append(abs(a - bisection_root(spec_, admit, f, backlogged, gate_open, pinned)))
        return a

    fluid._solve_admit_root = checked
    try:
        solve_rates(state, spec)
    finally:
        fluid._solve_admit_root = solve
    assert all(gap <= 1e-12 for gap in gaps)


def test_sliding_root_below_a_flat_piece_above_zero():
    # flow 0 pins three queues behind its empty ingress queue; its residual
    # is flat at zero up to 2/3, rises, and is flat above zero again at
    # full admission, so the upper end's piece has no zero of its own, and
    # g = 0 at a midpoint inside the flat stretch is no root
    spec = build_network(
        [(0, 1, 2, 3), (1,)],
        arrival=[EXP(1.0), EXP(1.0)],
        service=[[EXP(1.0)] * 4, [EXP(1.0)]],
        weights=[2, 1],
    )
    rv = solve_rates(FluidState.initial(spec, [0.0, 0.0, 1.0, 1.0, 1.0], 1.0), spec)
    assert rv.admit == pytest.approx([2 / 3, 1.0], abs=1e-12)
    assert rv.q_dot == pytest.approx([0.0, 2 / 3, 0.0, -1 / 3, 0.0], abs=1e-12)


@st.composite
def flat_stretch_cases(draw):
    """Chains where a pinned queue sits behind a backlogged upstream queue
    with the same service rate, so that its residual does not see flow 0's
    admission over a range of it; other queues of the route are empty or
    pinned too, and up to two cross flows share the stations."""
    length = draw(st.integers(2, 4))
    d = draw(st.integers(length, length + 1))
    mu = draw(st.floats(0.3, 1.5))
    paths = [tuple(range(length))]
    arrival = [EXP(draw(st.floats(0.2, 1.7)))]
    service = [[EXP(mu)] * length]
    weights = [draw(st.integers(1, 3))]
    for _ in range(draw(st.integers(0, 2))):
        hops = draw(st.integers(1, 2))
        paths.append(tuple(draw(st.permutations(range(d)))[:hops]))
        arrival.append(EXP(draw(st.floats(0.2, 1.7))))
        service.append([EXP(draw(st.sampled_from([mu, draw(st.floats(0.3, 2.3))])))
                        for _ in range(hops)])
        weights.append(draw(st.integers(1, 3)))
    spec = build_network(
        paths, arrival=arrival, service=service, weights=weights,
        threshold_base=1.0, num_stations=d,
    )
    hbar = draw(st.floats(0.5, 2.5))
    q = [draw(st.sampled_from([0.0, hbar, 0.5 * hbar, 2.0 * hbar])) for _ in range(spec.num_classes)]
    route = spec.routes[0]
    for k in route:
        q[k] = draw(st.sampled_from([0.0, hbar]))
    pinned = draw(st.integers(1, length - 1))
    q[route[pinned]] = hbar
    q[route[pinned - 1]] = hbar * draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
    return spec, FluidState.initial(spec, q, hbar)


@settings(max_examples=60, deadline=None)
@given(flat_stretch_cases())
def test_sliding_root_on_flat_stretches_matches_bisection_oracle(case):
    from qnet import fluid

    spec, state = case
    solve = fluid._solve_admit_root
    gaps = []

    def checked(spec_, admit, f, backlogged, gate_open, pinned):
        a = solve(spec_, admit, f, backlogged, gate_open, pinned)
        gaps.append(abs(a - bisection_root(spec_, admit, f, backlogged, gate_open, pinned)))
        return a

    fluid._solve_admit_root = checked
    try:
        solve_rates(state, spec)
    finally:
        fluid._solve_admit_root = solve
    assert gaps and max(gaps) <= 1e-12


def reference_solve_rates(state, spec):
    """``solve_rates`` with every sliding flow's root solved again on every
    Gauss-Seidel pass, and the idle fractions taken in numpy: the arrays
    admit, depart, busy, idle and arrival."""
    from qnet import fluid

    atol, *masks = _classify(state.q.tolist(), state.hbar)
    empty, at_thr, above = map(np.array, masks)
    backlogged = (~empty | (state.v > atol)).tolist()
    gate_open = (state.v <= atol).tolist()
    admit = [0.0] * spec.num_flows
    sliding = []
    for f, ks in enumerate(spec.routes):
        if state.u[f] > atol or any(above[k] for k in ks):
            continue
        admit[f] = float(spec.alpha[f])
        pinned = [k for k in ks if at_thr[k]]
        if pinned:
            sliding.append((f, pinned))
    for _pass in range(2 * len(sliding) + 6):
        moved = 0.0
        for f, pinned in sliding:
            new = fluid._solve_admit_root(spec, admit, f, backlogged, gate_open, pinned)
            moved = max(moved, abs(new - admit[f]))
            admit[f] = new
        if moved <= 1e-12:
            break
    else:
        raise fluid.FluidRateError("sliding admission rates did not stabilize")
    depart, busy, inflow = fluid._allocate(spec, admit, backlogged, gate_open)[:3]
    idle = np.ones(spec.num_stations)
    for i, members in enumerate(spec.fed):
        idle[i] -= sum(busy[k] for k in members)
    idle[np.abs(idle) < 1e-12] = 0.0
    return [np.array(x) for x in (admit, depart, busy, idle, inflow)]


def assert_solve_matches_reference(state, spec):
    """solve_rates gives the reference's rates bit for bit, or the same
    FluidRateError."""
    from qnet.fluid import FluidRateError

    try:
        want = reference_solve_rates(state, spec)
    except FluidRateError:
        with pytest.raises(FluidRateError):
            solve_rates(state, spec)
        return
    rv = solve_rates(state, spec)
    have = [rv.admit, rv.depart, rv.busy, rv.idle, rv.arrival]
    assert [np.array(a).tobytes() for a in have] == [b.tobytes() for b in want]


def test_skipped_roots_match_full_passes_on_switch_member_states():
    from qnet.absorption import member_states, switch_equilibrium_set

    spec = switch_example_spec()
    states = member_states(switch_equilibrium_set(0.5), 1.0, spec, per_piece=20, seed=4)
    for st_ in states + [settled_switch_state(1.0, 1.0), settled_switch_state(0.5, 1.0)]:
        assert_solve_matches_reference(st_, spec)


def test_root_solved_again_after_another_flow_moved():
    # flow 1 passes its admission through station 0, where flow 0 is
    # pinned, to its pinned queue at station 1, whose weight-1 share beside
    # flow 2 (weight 3, above the threshold) is 0.25.  Flow 0's first root
    # sees flow 1 at its full 0.9 and takes half of station 0; once flow 1
    # drops to 0.25 it must be solved again, and then takes 0.75.
    spec = build_network(
        [(0,), (0, 1), (1,)],
        arrival=[EXP(0.9)] * 3,
        service=[[EXP(1.0)], [EXP(1.0)] * 2, [EXP(1.0)]],
        weights=[1, 1, 3],
    )
    state = FluidState.initial(spec, [1.0, 0.0, 2.0, 1.0], 1.0)
    assert list(solve_rates(state, spec).admit) == [0.75, 0.25, 0.0]
    assert_solve_matches_reference(state, spec)


@settings(max_examples=40, deadline=None)
@given(fluid_cases())
def test_skipped_roots_match_full_passes_on_random_networks(case):
    spec, state, _horizon = case
    assert_solve_matches_reference(state, spec)


@settings(max_examples=60, deadline=None)
@given(flat_stretch_cases())
def test_skipped_roots_match_full_passes_on_flat_stretches(case):
    spec, state = case
    assert_solve_matches_reference(state, spec)


def test_allocation_on_cyclic_station_graph():
    # flows 0 -> 1 and 1 -> 0 feed each other's stations, so the
    # allocation needs repeated sweeps; fixed point: station 1 passes flow
    # 0's 0.3 and serves flow 1's ingress at 0.7, which station 0 passes
    from qnet.distributions import DistributionSpec as D

    spec = build_network(
        [(0, 1), (1, 0)],
        arrival=[D.exponential(0.3), D.exponential(0.9)],
        service=[[D.exponential(1.0)] * 2] * 2,
    )
    rv = solve_rates(FluidState.initial(spec, [0.0] * 4, 1.0), spec)
    # classes: 0 = flow 0 at station 0, 1 = flow 1 at station 1,
    # 2 = flow 0 at station 1, 3 = flow 1 at station 0
    assert rv.depart == pytest.approx([0.3, 0.7, 0.3, 0.7], abs=1e-12)
    assert rv.q_dot == pytest.approx([0.0, 0.2, 0.0, 0.0], abs=1e-12)
    assert rv.idle == pytest.approx([0.0, 0.0], abs=1e-12)


def jacobi_allocate(spec, admit, backlogged, gate_open):
    """Reference allocation: Jacobi rounds that propagate every inflow
    from the previous round's departures and water-fill every station,
    until no departure moves by more than 1e-14."""
    w, mu, K = spec.w, spec.mu, spec.num_classes

    def propagate(depart):
        inflow = np.zeros(K)
        for f, ks in enumerate(spec.routes):
            inflow[ks[0]] += admit[f]
            for p, k in zip(ks, ks[1:]):
                inflow[k] += depart[p]
        return inflow

    depart = np.zeros(K)
    for _ in range(4 * K + 16):
        inflow = propagate(depart)
        new, busy = np.zeros(K), np.zeros(K)
        for members in spec.fed:
            gated = [k for k in members if not gate_open[k]]
            if gated:
                busy[gated[0]] = 1.0
                continue
            open_ = [k for k in members if backlogged[k] or inflow[k] > 0.0]
            limited, share = set(), 0.0
            while True:
                rest = [k for k in open_ if k not in limited]
                if not rest:
                    share = 0.0
                    break
                used = sum(inflow[k] / mu[k] for k in limited)
                share = max(0.0, (1.0 - used) / sum(w[k] / mu[k] for k in rest))
                movers = [k for k in rest
                          if not backlogged[k] and inflow[k] < w[k] * share - 1e-15]
                if not movers:
                    break
                limited.update(movers)
            for k in open_:
                new[k] = inflow[k] if k in limited else w[k] * share
                busy[k] = new[k] / mu[k]
        moved = float(np.max(np.abs(new - depart)))
        depart = new
        if moved <= 1e-14:
            return depart, busy, propagate(depart)
    raise AssertionError("reference allocation did not settle")


@settings(max_examples=40, deadline=None)
@given(fluid_cases(), st.data())
def test_allocation_matches_jacobi_reference(case, data):
    from qnet.fluid import _allocate, _classify

    spec, state, _horizon = case
    atol, *masks = _classify(state.q.tolist(), state.hbar)
    empty, _at, _above = map(np.array, masks)
    backlogged = (~empty | (state.v > atol)).tolist()
    gate_open = (state.v <= atol).tolist()
    admit = [data.draw(st.floats(0.0, float(a))) for a in spec.alpha]
    got = _allocate(spec, admit, backlogged, gate_open)
    for have, want in zip(got, jacobi_allocate(spec, admit, backlogged, gate_open)):
        assert np.asarray(have) == pytest.approx(want, abs=1e-12)
