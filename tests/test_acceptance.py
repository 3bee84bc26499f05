"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The stochastic
criteria (4-6) pin their seeds; the bands they assert encode the expected
qualitative behavior (rates substantially below the fair share at small
thresholds, close to it at large thresholds) rather than any single
sample path's values.
"""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qnet
from qnet.absorption import SamplePlan, SamplePoint, verify_C1, verify_C2
from qnet.cli import main as cli_main
from qnet.fluid import FluidState, integrate, solve_rates
from qnet.network import SWITCH, switch_example_spec, tandem_spec

HBAR = 1.0
Q2, Q7 = SWITCH.flow2_ingress, SWITCH.flow2_egress


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def settled_switch_q(q2, q7):
    q = np.zeros(8)
    q[SWITCH.flow1_ingress] = HBAR
    q[SWITCH.flow3_egress] = HBAR
    q[Q2], q[Q7] = q2, q7
    return q


# ---------------------------------------------------------------------------
# criterion 1: fluid phase-portrait oracle (exact region dynamics)


def test_criterion_1_phase_portrait_oracle():
    spec = switch_example_spec()
    regions = {
        "region1": ([(0.3, 0.4), (0.0, 0.0), (0.9, 0.9), (0.5, 0.0)], (0.1, 0.0)),
        "region2": ([(1.4, 0.2), (2.5, 0.9), (1.01, 0.0)], (-0.5, 0.0)),
        "region3": ([(0.4, 1.6), (2.0, 1.2), (0.01, 2.5)], (-0.5, 0.0)),
        "region4": ([(0.0, 1.2), (0.0, 3.0)], (0.0, -0.5)),
    }
    worst = 0.0
    for _name, (points, expected) in regions.items():
        for q2, q7 in points:
            state = FluidState.initial(spec, settled_switch_q(q2, q7), HBAR)
            qd = solve_rates(state, spec).q_dot
            worst = max(worst, abs(qd[Q2] - expected[0]), abs(qd[Q7] - expected[1]))
    report("criterion 1: switch phase-portrait dynamics exact", worst <= 1e-12,
           f"max |deviation| = {worst:.3e}")


# ---------------------------------------------------------------------------
# criterion 2: tandem fluid absorption


def test_criterion_2_tandem_absorption():
    spec = tandem_spec(1.0, 0.8, 0.5)
    grid = np.linspace(0.0, 3.0 * HBAR, 10)
    ok_all = True
    for q1 in grid:
        for q2 in grid:
            traj = integrate(FluidState.initial(spec, [q1, q2], HBAR), spec, 80.0)
            absorbed = traj.absorbed_at is not None
            at_point = np.abs(traj.q[-1] - [0.0, HBAR]).max() <= 1e-9
            flow = qnet.departure_rates_at(traj.state_at(traj.horizon), spec)
            ok_all = ok_all and absorbed and at_point and abs(flow[0] - 0.5) <= 1e-9
    plan = SamplePlan(
        points=[SamplePoint(q=np.array([a, b])) for a in grid for b in grid],
        time_budget=80.0,
    )
    c1 = verify_C1(spec, qnet.tandem_point_set(), HBAR, plan)
    ok_all = ok_all and c1.ok and np.isfinite(c1.max_ratio)

    # equal service rates: the minimal two-segment set fails linear-time
    # absorption (ratio blows up as the start approaches the set) while the
    # enlarged wedge set passes with a bounded ratio
    spec_eq = tandem_spec(1.0, 0.5, 0.5)
    eps = [HBAR * 1e-1, HBAR * 1e-2, HBAR * 1e-3]
    plan_eps = SamplePlan(
        points=[SamplePoint(q=np.array([HBAR, HBAR + e])) for e in eps],
        time_budget=60.0,
    )
    tilde = verify_C1(spec_eq, qnet.tandem_tilde_set(), HBAR, plan_eps)
    blowup = (
        tilde.ratios[0] < tilde.ratios[1] < tilde.ratios[2]
        and tilde.ratios[2] > 1000.0
    )
    wedge = verify_C1(spec_eq, qnet.tandem_wedge_set(0.5), HBAR, plan_eps)
    wedge_ok = wedge.ok and wedge.max_ratio <= 10.0
    report(
        "criterion 2: tandem fluid absorption",
        ok_all and blowup and wedge_ok,
        f"point-set t0={c1.max_ratio:.3f}; segment ratios "
        f"{np.round(tilde.ratios, 1).tolist()} blow up; wedge t0={wedge.max_ratio:.3f}",
    )


# ---------------------------------------------------------------------------
# criterion 3: switch C1 (per-region ratio bounds) and C2 (exact rates)


def test_criterion_3_switch_c1_c2():
    spec = switch_example_spec()
    a = 0.5
    eqset = qnet.switch_equilibrium_set(a)
    # hitting times follow the phase portrait of the bottleneck pair, so
    # the ratio bounds are stated on the set's projection onto it
    proj = eqset.projected((Q2, Q7))
    bounds = {"region1": 10.0 / a, "region2": 2.0, "region3": 2.0 / a, "region4": 2.0}
    pts = []
    edges = [0.02, 0.2, 0.95]  # boundary-biased plus interior starts
    for q2 in edges + [0.5]:
        for q7 in edges + [0.6]:
            pts.append(SamplePoint(q=settled_switch_q(q2, q7), label="region1"))
    for q2 in [1.02, 1.3, 2.9]:
        for q7 in edges:
            pts.append(SamplePoint(q=settled_switch_q(q2, q7), label="region2"))
    for q2 in [0.02, 0.6, 1.5, 2.9]:
        for q7 in [1.02, 1.6, 2.9]:
            pts.append(SamplePoint(q=settled_switch_q(q2, q7), label="region3"))
    for q7 in [1.52, 1.8, 2.9]:
        pts.append(SamplePoint(q=settled_switch_q(0.0, q7), label="region4"))
    c1 = verify_C1(spec, proj, HBAR, SamplePlan(points=pts, time_budget=120.0))
    ratio_ok = c1.ok
    details = []
    for region, bound in bounds.items():
        r = c1.max_ratio_for(region)
        ratio_ok = ratio_ok and r <= bound + 1e-6
        details.append(f"{region} {r:.3f}<={bound:g}")
    c2 = verify_C2(spec, eqset, HBAR, [0.5, 0.5, 0.5], per_piece=40)
    c2_ok = c2.max_deviation <= 1e-12
    report(
        "criterion 3: switch absorption ratios and in-set rates",
        ratio_ok and c2_ok,
        "; ".join(details) + f"; C2 max dev {c2.max_deviation:.1e}",
    )


# ---------------------------------------------------------------------------
# criteria 4 and 5 share one threshold sweep


SEEDS = tuple(range(100, 110))
N_VALUES = (10.0, 30.0, 100.0, 300.0)


@pytest.fixture(scope="module")
def switch_sweep():
    spec = switch_example_spec()
    plan = qnet.ExperimentPlan(
        n_values=N_VALUES, horizon=1e4, seeds=SEEDS, warmup_frac=0.2
    )
    return qnet.run_sweep(spec, plan)


def test_criterion_4_switch_stochastic_rates(switch_sweep):
    f2_10 = switch_sweep.rates_for(10.0)[:, 1]
    f2_100 = switch_sweep.rates_for(100.0)[:, 1]
    low_ok = int(np.sum(f2_10 <= 0.46))
    band_ok = int(np.sum((f2_100 >= 0.47) & (f2_100 <= 0.50)))
    paired = int(np.sum(f2_100 > f2_10))
    ok = low_ok >= 8 and band_ok >= 8 and paired >= 9
    # monotone threshold effect in the mean as well
    ok = ok and f2_100.mean() > f2_10.mean()
    report(
        "criterion 4: switch rates at nh=10 vs nh=100",
        ok,
        f"nh=10 rate<=0.46 for {low_ok}/10 (mean {f2_10.mean():.3f}); "
        f"nh=100 in [0.47,0.50] for {band_ok}/10 (mean {f2_100.mean():.3f}); "
        f"paired increase {paired}/10",
    )


def test_criterion_5_threshold_scaling_convergence(switch_sweep):
    R = np.array([0.5, 0.5, 0.5])
    means = []
    for n in N_VALUES:
        rates = switch_sweep.rates_for(n)
        means.append(float(np.max(np.abs(rates - R), axis=1).mean()))
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    ok = decreasing and means[-1] <= 0.02
    report(
        "criterion 5: deviation strictly decreasing in n, <=0.02 at nh=300",
        ok,
        "mean inf-deviation " + str([round(m, 4) for m in means]),
    )


# ---------------------------------------------------------------------------
# criterion 6: functional strong-law check (scaled paths -> fluid path)


def test_criterion_6_functional_slln():
    spec = tandem_spec(1.0, 0.8, 0.5)
    q0 = np.array([2.0, 0.5])
    T = 5.0
    grid = np.linspace(0.0, T, 501)
    traj = integrate(FluidState.initial(spec, q0, HBAR), spec, T)
    fluid_q = np.array([traj.q_at(t) for t in grid])
    sups = []
    for n in (100, 1000, 10000):
        trace = qnet.run(
            spec, n, seed=1234, horizon=n * T,
            initial_queues=np.round(q0 * n).astype(int),
            sample_times=n * grid, invariant_checks="off",
        )
        path = qnet.scaled_trajectory(trace, n)
        sups.append(float(np.abs(path.q - fluid_q).sum(axis=1).max()))
    ok = sups[0] > sups[1] > sups[2] and sups[2] <= 0.05
    report(
        "criterion 6: scaled sample paths approach the fluid path",
        ok,
        f"sup-deviation over n=(1e2,1e3,1e4): {[round(s, 4) for s in sups]}",
    )


# ---------------------------------------------------------------------------
# criterion 7: invariant suites


@st.composite
def random_cases(draw):
    d = draw(st.integers(2, 3))
    F = draw(st.integers(1, 3))
    paths, arrival, service = [], [], []
    for _ in range(F):
        length = draw(st.integers(1, d))
        perm = draw(st.permutations(range(d)))
        paths.append(tuple(perm[:length]))
        arrival.append(qnet.DistributionSpec.exponential(draw(st.floats(0.3, 1.5))))
        service.append(
            [
                draw(
                    st.sampled_from(
                        [
                            qnet.DistributionSpec.exponential(1.3),
                            qnet.DistributionSpec.pareto_paper(0.9),
                            qnet.DistributionSpec.deterministic(0.6),
                        ]
                    )
                )
                for _ in range(length)
            ]
        )
    spec = qnet.build_network(
        paths, arrival=arrival, service=service,
        threshold_base=draw(st.floats(1.0, 3.0)),
        hysteresis_gap=draw(st.sampled_from([0.0, 1.0])),
        num_stations=d,
    )
    return spec, draw(st.integers(1, 10)), draw(st.integers(0, 2**31))


@settings(max_examples=20, deadline=None)
@given(random_cases())
def test_criterion_7a_invariants_on_random_networks(case):
    spec, n, seed = case
    trace = qnet.run(spec, n, seed, horizon=300.0, invariant_checks="every")
    assert (trace.admitted <= trace.exogenous).all()


def _random_spec(rng: np.random.Generator):
    d = int(rng.integers(2, 4))
    F = int(rng.integers(1, 4))
    paths, arrival, service = [], [], []
    kinds = [
        lambda r: qnet.DistributionSpec.exponential(1.0 + r.random()),
        lambda r: qnet.DistributionSpec.pareto_paper(0.8 + r.random()),
        lambda r: qnet.DistributionSpec.deterministic(0.4 + 0.4 * r.random()),
    ]
    for _ in range(F):
        length = int(rng.integers(1, d + 1))
        paths.append(tuple(rng.permutation(d)[:length]))
        arrival.append(qnet.DistributionSpec.exponential(0.4 + rng.random()))
        service.append([kinds[int(rng.integers(3))](rng) for _ in range(length)])
    return qnet.build_network(
        paths, arrival=arrival, service=service,
        threshold_base=float(1.0 + 2.0 * rng.random()),
        hysteresis_gap=float(rng.choice([0.0, 1.0])),
        num_stations=d,
    )


def test_criterion_7_invariant_suites():
    # randomized valid networks, identity checks at every event, until a
    # million events have been verified in total
    rng = np.random.default_rng(2718)
    total_events = 0
    thinning_ok = True
    spec_count = 0
    while total_events < 1_000_000:
        spec = _random_spec(rng)
        assert str(qnet.validate(spec)) == "valid"
        trace = qnet.run(
            spec, n=int(rng.integers(1, 12)), seed=int(rng.integers(2**31)),
            horizon=6e4, invariant_checks="every",
        )
        total_events += trace.event_count
        spec_count += 1
        thinning_ok = thinning_ok and bool((trace.admitted <= trace.exogenous).all())
    long_ok = total_events >= 1_000_000

    # fairness: normalized departure counts of jointly backlogged classes
    # stay within c=1 for the cyclic schedule, checked along the whole run
    fair = qnet.build_network(
        [(0,), (0,)],
        arrival=[qnet.DistributionSpec.deterministic(1e9)] * 2,
        service=[[qnet.DistributionSpec.deterministic(1.0)],
                 [qnet.DistributionSpec.deterministic(1.0)]],
        weights=[2, 1],
        threshold_base=1e3,
    )
    ft = qnet.run(fair, 1, seed=0, horizon=90.0, initial_queues=[99, 99],
                  sample_times=np.arange(0.5, 90.0, 0.5))
    d = ft.sample_d.astype(float)
    fairness_ok = bool(np.max(np.abs(d[:, 0] / 2.0 - d[:, 1])) <= 1.0 + 1e-12)

    # fluid conservation at every breakpoint
    sw = switch_example_spec()
    traj = integrate(FluidState.initial(sw, settled_switch_q(2.7, 0.2), HBAR), sw, 40.0)
    P = sw.routing_matrix.T.astype(float)
    lam = np.zeros((len(traj.times), sw.num_classes))
    for f in range(sw.num_flows):
        lam[:, sw.flow_classes(f)[0]] = traj.cum_admit[:, f]
    arrivals = traj.cum_depart @ P.T + lam
    residual = float(np.abs(traj.q - (traj.q[0] + arrivals - traj.cum_depart)).max())
    fluid_ok = residual <= 1e-9

    report(
        "criterion 7: invariant suites",
        long_ok and thinning_ok and fairness_ok and fluid_ok,
        f"{total_events} events over {spec_count} randomized networks; "
        f"fairness c=1 held; fluid conservation residual {residual:.1e}",
    )


# ---------------------------------------------------------------------------
# criterion 8: byte-identical outputs for identical plans


PLAN_YAML = """\
version: 1
network:
  preset: switch_example
  threshold_base: 1.0
experiment:
  n_values: [5, 20]
  horizon: 1000
  replications: 3
  base_seed: 11
  warmup_frac: 0.2
  target_rates: [0.5, 0.5, 0.5]
simulate:
  n: 10
  horizon: 400
  seed: 2
  sample_count: 40
"""


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "plan.yaml"
    cfg.write_text(PLAN_YAML)
    digests = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        assert cli_main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        blob = b"".join(
            hashlib.sha256((out / name).read_bytes()).digest()
            for name in ("rates.csv", "rates.json", "trace.csv", "trace.json")
        )
        digests.append(hashlib.sha256(blob).hexdigest())
    report(
        "criterion 8: identical plan gives byte-identical outputs",
        digests[0] == digests[1],
        f"sha256 {digests[0][:16]}",
    )
