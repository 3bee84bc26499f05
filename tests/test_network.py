from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnet.distributions import DistributionSpec
from qnet.network import (
    SWITCH,
    build_network,
    offered_load,
    switch_example_spec,
    tandem_spec,
    validate,
)

EXP1 = DistributionSpec.exponential(1.0)


def test_tandem_valid():
    assert str(validate(tandem_spec(1.0, 0.8, 0.5))) == "valid"


def test_tandem_unknown_arrival_kind_rejected():
    # a misspelt kind used to fall through to deterministic arrivals
    with pytest.raises(ValueError, match="pareto_paper or deterministic, not 'exponentail'"):
        tandem_spec(1.0, 0.8, 0.5, arrival_kind="exponentail")
    assert tandem_spec(1.0, 0.8, 0.5, arrival_kind="deterministic").arrival_dist[0].param == 1.0


def test_tandem_zero_deterministic_arrivals_rejected():
    # the interarrival time 1/lam used to raise ZeroDivisionError before
    # build_network could name the fault
    with pytest.raises(ValueError) as exc:
        tandem_spec(0, 0.8, 0.5, arrival_kind="deterministic")
    assert str(exc.value) == "flows[0].arrival: expected a rate in (0, inf), not 0.0"


def test_reference_matrices_read_only_and_cycle_unbuildable():
    # the matrices are the invariant checks' reference: they cannot be
    # overwritten, and the one class map that gave a routing cycle (a class
    # id used by two hops) is rejected before any spec exists
    spec = tandem_spec(1.0, 0.8, 0.5)
    for matrix in (spec.routing_matrix, spec.constituency):
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1
    with pytest.raises(ValueError, match=r"class_ids: class id 0 is used twice"):
        build_network([(0, 1)], arrival=[EXP1], service=[[EXP1] * 2],
                      class_ids={(0, 0): 0, (0, 1): 0})


TANDEM = dict(arrival=[EXP1], service=[[EXP1] * 2], num_stations=2)


@pytest.mark.parametrize(
    "paths, kw, message",
    [
        ([(0, 1)], dict(class_ids={(0, 0): 99, (0, 1): 1}), "class_ids: class id 99 is not in [0, 2)"),
        ([(0, 1)], dict(idle_slots={5: 0}), "idle_slots: class id 5 is not in [0, 3)"),
        ([(0, 1)], dict(idle_slots={2: 7}), "idle_slots: station 7 of class 2 is not in [0, 2)"),
        ([(0, 1)], dict(class_ids={(0, 0): 0}), "class_ids: (flow, hop) (0, 1) has no class id"),
        ([(0, 1)], dict(class_ids={(0, 0): 0, (0, 1): 1, (0, 2): 2}),
         "class_ids: (flow, hop) (0, 2) is not on a path; class_ids: class id 2 is not in [0, 2)"),
        ([(0, 1)], dict(class_ids={(0, 0): 0, (0, 1): 1, (1, 0): 2}),
         "class_ids: (flow, hop) (1, 0) is not on a path; class_ids: class id 2 is not in [0, 2)"),
        ([(0, 5)], {}, "flows[0].path: station 5 is not in [0, 2)"),
        ([(0, 1)], dict(idle_slots={1: 0}), "idle_slots: class id 1 is used twice"),
        ([()], dict(service=[[]]), "flows[0].path: expected a nonempty list of station ids"),
        ([(0, 1)], dict(service=[[EXP1]]), "flows[0].service: expected one distribution per hop"),
        ([(0,), (0,)], dict(service=[[EXP1], [EXP1]]), "arrival: expected one entry per flow, not 1"),
        ([(0,), (0,)], dict(arrival=[EXP1] * 2, service=[[EXP1], [EXP1]], weights=[1]),
         "weights: expected one entry per flow, not 1"),
    ],
    ids=["class_id_too_large", "idle_id_too_large", "idle_station_too_large", "hop_without_id",
         "hop_past_path", "flow_past_paths", "station_too_large", "idle_id_fed", "empty_path",
         "service_per_hop", "arrival_per_flow", "weights_per_flow"],
)
def test_build_network_rejects_bad_numbering(paths, kw, message):
    # each of these used to end in an IndexError or KeyError while the spec
    # was built, in a spec whose tables disagree, or in a message naming no field
    with pytest.raises(ValueError) as exc:
        build_network(paths, **{**TANDEM, **kw})
    assert str(exc.value) == message


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "paths, kw, message",
    [
        ([(0, 1)], dict(threshold_base=0), "threshold_base: expected a positive finite number, not 0.0"),
        ([(0, 1)], dict(threshold_base=NAN), "threshold_base: expected a positive finite number, not nan"),
        ([(0, 1)], dict(threshold_base=INF), "threshold_base: expected a positive finite number, not inf"),
        ([(0, 1)], dict(hysteresis_gap=-1), "hysteresis_gap: expected a nonnegative finite number, not -1.0"),
        ([(0, 1)], dict(hysteresis_gap=NAN), "hysteresis_gap: expected a nonnegative finite number, not nan"),
        ([(0, 1)], dict(hysteresis_gap=INF), "hysteresis_gap: expected a nonnegative finite number, not inf"),
        ([(0, 1, 0)], dict(service=[[EXP1] * 3]), "flows[0].path: revisits a station"),
        ([(0, 1)], dict(class_ids={(0, 0): 1, (0, 1): 0}), "class_ids: flow 0 enters at class 1, not 0"),
        ([(0, 1)], dict(weights=[0]), "flows[0].weight: expected a positive rational, not 0"),
        ([(0, 1)], dict(weights=["-1/2"]), "flows[0].weight: expected a positive rational, not -1/2"),
        ([(0,), (0,)], dict(arrival=[EXP1] * 2, service=[[EXP1], [EXP1]], weights=[0, -1]),
         "flows[0].weight: expected a positive rational, not 0;"
         " flows[1].weight: expected a positive rational, not -1"),
        ([(0, 1)], dict(arrival=[DistributionSpec.exponential(0)]),
         "flows[0].arrival: expected a rate in (0, inf), not 0.0"),
        ([(0, 1)], dict(arrival=[DistributionSpec.deterministic(0)]),
         "flows[0].arrival: expected a rate in (0, inf), not inf"),
        ([(0, 1)], dict(service=[[EXP1, DistributionSpec.exponential(0)]]),
         "flows[0].service[1]: expected a rate in (0, inf), not 0.0"),
        ([], dict(arrival=[], service=[]), "flows: expected a nonempty list"),
    ],
    ids=["threshold_zero", "threshold_nan", "threshold_inf", "gap_negative", "gap_nan", "gap_inf",
         "revisit", "ingress_class", "weight_zero", "weight_negative_fraction", "weights_zero_and_negative",
         "arrival_rate_zero", "arrival_time_zero", "service_rate_zero", "no_flows"],
)
def test_build_network_rejects_faulty_network(paths, kw, message):
    # these built specs that des.run or fluid.integrate could not run: a
    # zero rate or weight ended in a ZeroDivisionError, an idle-while-
    # backlogged InvariantViolation or a rate of 0, a NaN or infinite
    # threshold never discarded and a NaN gap never turned a flag off
    with pytest.raises(ValueError) as exc:
        build_network(paths, **{**TANDEM, **kw})
    assert str(exc.value) == message


def test_switch_offered_load():
    spec = switch_example_spec()
    assert offered_load(spec) == pytest.approx([1.2, 0.6, 0.6, 1.2], abs=1e-12)


def test_switch_structure():
    spec = switch_example_spec()
    assert spec.num_classes == 8
    assert spec.num_flows == 3
    assert spec.num_stations == 4
    # flow 0 ingress at station 0; flow 1's bottleneck pair is (1, 6);
    # flow 2 exits at queue 7 of station 3
    assert spec.flow_classes(0) == (SWITCH.flow1_ingress, SWITCH.flow1_egress)
    assert spec.flow_classes(1) == (SWITCH.flow2_ingress, SWITCH.flow2_egress)
    assert spec.flow_classes(2) == (SWITCH.flow3_ingress, SWITCH.flow3_egress)
    assert spec.station_of[SWITCH.flow2_ingress] == 0
    assert spec.station_of[SWITCH.flow2_egress] == 3
    assert spec.station_of[SWITCH.flow3_egress] == 3
    assert str(validate(spec)) == "valid"


def test_switch_idle_slots_carry_no_flow():
    spec = switch_example_spec()
    assert spec.idle_slots == frozenset({SWITCH.idle_a, SWITCH.idle_b})
    fed = {k for (_, _), k in ((pair, k) for pair, k in spec.class_of.items())}
    assert fed.isdisjoint(spec.idle_slots)


def test_ingress_class_convention():
    spec = switch_example_spec()
    for f in range(spec.num_flows):
        assert spec.flow_classes(f)[0] == f


def test_deterministic_arrival_warned():
    spec = build_network(
        [(0,)],
        arrival=[DistributionSpec.deterministic(1.0)],
        service=[[EXP1]],
    )
    assert str(validate(spec)) == (
        "warning: flow 0: arrival times have bounded support; long-run "
        "rate guarantees assume unbounded, spread-out interarrivals"
    )


def test_weights_rational_cycle():
    spec = build_network(
        [(0,), (0,)],
        arrival=[EXP1, EXP1],
        service=[[EXP1], [EXP1]],
        weights=[Fraction(2, 3), Fraction(1, 3)],
    )
    cycle = spec.visit_cycle(0)
    assert cycle.count(0) == 2
    assert cycle.count(1) == 1


@st.composite
def random_networks(draw):
    d = draw(st.integers(2, 4))
    F = draw(st.integers(1, 3))
    paths = []
    for _ in range(F):
        length = draw(st.integers(1, min(3, d)))
        path = draw(
            st.permutations(range(d)).map(lambda p, n=length: tuple(p[:n]))
        )
        paths.append(path)
    weights = [
        Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(F)
    ]
    arrival = [
        DistributionSpec.exponential(draw(st.floats(0.2, 2.0))) for _ in range(F)
    ]
    service = [
        [DistributionSpec.exponential(draw(st.floats(0.5, 3.0))) for _ in p]
        for p in paths
    ]
    h = draw(st.floats(0.5, 3.0))
    gap = draw(st.sampled_from([0.0, 1.0, 2.0]))
    return build_network(
        paths,
        arrival=arrival,
        service=service,
        weights=weights,
        threshold_base=h,
        hysteresis_gap=gap,
        num_stations=d,
    )


@settings(max_examples=50, deadline=None)
@given(random_networks())
def test_random_network_structure(spec):
    assert str(validate(spec)) == "valid"
    P = spec.routing_matrix.astype(np.int64)
    # each row has at most one successor and P^K vanishes exactly
    assert (P.sum(axis=1) <= 1).all()
    Pk = np.eye(spec.num_classes, dtype=np.int64)
    for _ in range(spec.num_classes):
        Pk = Pk @ P
    assert not Pk.any()
    # one station per class
    assert (spec.constituency.sum(axis=0) == 1).all()
    # class numbering is a bijection (flow, hop) <-> {0..K-1}
    ids = sorted(spec.class_of.values())
    assert ids == list(range(spec.num_classes))


# input pools: three good values, then every kind of bad one
RATES = [1.0, 0.5, 2.0, 0.0, -1.0, NAN, INF]
WEIGHTS = [1, 2, "1/3", 0, -1, "-1/2", NAN, INF]
THRESHOLDS = [1.0, 0.5, 3.0, 0.0, -1.0, NAN, INF]
GAPS = [0.0, 1.0, 0.5, -1.0, NAN, INF]


@st.composite
def network_inputs(draw):
    # half the draws take every value from the good part of its pool
    pick = (lambda pool: st.sampled_from(pool[:3])) if draw(st.booleans()) else st.sampled_from
    d = draw(st.integers(1, 3))
    paths = draw(st.lists(st.permutations(range(d)).flatmap(
        lambda p: st.integers(1, d).map(lambda n: p[:n])), min_size=1, max_size=3))
    dist = st.tuples(st.sampled_from(["exponential", "pareto_paper", "deterministic"]), pick(RATES))
    return dict(
        flow_paths=paths,
        arrival=[draw(dist) for _ in paths],
        service=[[draw(dist) for _ in p] for p in paths],
        weights=[draw(pick(WEIGHTS)) for _ in paths],
        threshold_base=draw(pick(THRESHOLDS)),
        hysteresis_gap=draw(pick(GAPS)),
        num_stations=d,
    )


@settings(max_examples=60, deadline=None)
@given(network_inputs())
def test_every_built_network_runs(kw):
    # a network is rejected at build time or it runs: the DES to its
    # horizon with every invariant checked, and the fluid rates are finite
    from qnet import des, fluid

    try:
        spec = build_network(
            kw["flow_paths"],
            arrival=[DistributionSpec(*a) for a in kw["arrival"]],
            service=[[DistributionSpec(*s) for s in hops] for hops in kw["service"]],
            **{key: kw[key] for key in ("weights", "threshold_base", "hysteresis_gap", "num_stations")},
        )
    except ValueError:  # DistributionSpec rejects negative and NaN parameters
        return
    trace = des.run(spec, 4, seed=1, horizon=20.0, invariant_checks="every")
    assert trace.horizon == 20.0
    state = fluid.FluidState.initial(spec, np.zeros(spec.num_classes), spec.threshold_base)
    rv = fluid.solve_rates(state, spec)
    assert all(np.isfinite(x).all() for x in (rv.admit, rv.depart, rv.busy, rv.idle))


def test_cycle_enumeration_bounds_imbalance_by_one():
    # derived oracle for the scheduler's fairness constant: walk the visit
    # cycle with every queue backlogged and track the worst normalized
    # departure-count imbalance; the cyclic schedule keeps it at c = 1
    spec = build_network(
        [(0,), (0,)],
        arrival=[EXP1, EXP1],
        service=[[EXP1], [EXP1]],
        weights=[Fraction(2), Fraction(1)],
    )
    cycle = spec.visit_cycle(0)
    counts = {0: 0, 1: 0}
    worst = 0.0
    for c in cycle * 3:
        counts[c] += 1
        worst = max(worst, abs(counts[0] / 2.0 - counts[1] / 1.0))
    assert worst <= 1.0


def test_switch_feeder_and_sweep_tables():
    spec = switch_example_spec()
    K = spec.num_classes
    # ingress classes read their flow's admission (entry K + f), the
    # egress classes their predecessor's departure; idle slots read none
    assert spec.feeder == (K, K + 1, K + 2, -1, 0, -1, 1, 2)
    assert spec.sweep == (0, 1, 2, 3)


def test_sweep_is_upstream_first():
    # a chain entered at its last station: the order follows the feed
    spec = build_network([(2, 1, 0)], arrival=[EXP1], service=[[EXP1] * 3])
    assert spec.sweep == (2, 1, 0)
    # stations without a fed class are left out
    spec = build_network([(3, 1)], arrival=[EXP1], service=[[EXP1] * 2], num_stations=4)
    assert spec.sweep == (3, 1)


def test_sweep_enters_a_station_cycle_at_its_lowest_station():
    spec = build_network([(0, 1), (1, 0), (2,)], arrival=[EXP1] * 3,
                         service=[[EXP1] * 2, [EXP1] * 2, [EXP1]])
    # station 2 is ready at once; stations 0 and 1 feed each other
    assert spec.sweep == (2, 0, 1)
    assert spec.feeder == (5, 6, 7, 0, 1)


def test_acyclic_table():
    assert switch_example_spec().acyclic
    assert build_network([(2, 1, 0)], arrival=[EXP1], service=[[EXP1] * 3]).acyclic
    cycle = build_network([(0, 1), (1, 0), (2,)], arrival=[EXP1] * 3,
                          service=[[EXP1] * 2, [EXP1] * 2, [EXP1]])
    assert not cycle.acyclic


def test_one_sweep_on_an_acyclic_station_graph(monkeypatch):
    from qnet import fluid

    spec = switch_example_spec()
    calls = []
    fill = fluid._fill_station

    def counted(*args):
        calls.append(1)
        return fill(*args)

    monkeypatch.setattr(fluid, "_fill_station", counted)
    K = spec.num_classes
    fluid._allocate(spec, [0.6, 0.6, 0.6], [True] * K, [True] * K)
    assert len(calls) == len(spec.sweep)
