"""Static description of a multiclass flow network with ingress discarding.

Indexing is zero-based throughout: flows 0..F-1, stations 0..d-1, classes
0..K-1.  A class is one (flow, hop) pair; by convention the ingress class
of flow f is class f.  Classes may be numbered explicitly to match an
external diagram, in which case unused class slots (queues no flow feeds)
are allowed if declared; they stay empty forever and carry no traffic.

Each spec compiles its index tables once, in ``__post_init__`` (see the
field comments): ``routes``, ``egress`` (a read-only index array),
``successor``, ``members``, ``fed``, ``cycles``, ``feeder``, ``sweep``,
``acyclic`` and the per-class or per-flow float tuples ``alpha``, ``mu``,
``w`` and ``w_mu``.  ``des`` reads the tables in its event loop and
``fluid`` on every rate solve; the views (``flow_classes``,
``next_class``, ``arrival_rates``, ...) return them, the rate views as
read-only arrays.  The read-only ``routing_matrix`` and ``constituency``
are derived in the same place but from ``class_of``, ``flow_paths`` and
``station_of`` alone, never from the tables above, as the independent
reference the ``des`` invariant checks use; ``check_structure`` is that
reference as index tuples, read from the two matrices.

``build_network`` checks every fault before it builds anything (paths and
class numbering first, so class ids are 0..K-1, each once), so every spec
it returns can be run by ``des`` and ``fluid``; ``validate`` only warns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .distributions import DistributionSpec


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    num_flows: int
    num_stations: int
    num_classes: int
    flow_paths: tuple            # per flow: tuple of distinct station ids
    class_of: dict               # (flow, hop) -> class id
    station_of: tuple            # per class: station id
    weights: tuple               # per flow: positive Fraction
    arrival_dist: tuple          # per flow: DistributionSpec
    service_dist: tuple          # per class: DistributionSpec
    threshold_base: float        # h > 0, before scaling by n
    hysteresis_gap: float = 0.0  # lower threshold is n*h - gap
    idle_slots: frozenset = frozenset()  # class ids fed by no flow
    # index tables, compiled once by __post_init__
    routes: tuple = field(init=False, repr=False)      # per flow: class ids, hop order
    egress: np.ndarray = field(init=False, repr=False)  # per flow: last class of the route, read-only
    successor: tuple = field(init=False, repr=False)   # per class: next class, -1 at egress
    members: tuple = field(init=False, repr=False)     # per station: its class ids
    fed: tuple = field(init=False, repr=False)         # per station: class ids minus idle slots
    cycles: tuple = field(init=False, repr=False)      # per station: round-robin visit order
    # per class: index of its inflow in the joint vector (class departures
    # 0..K-1, then flow admissions K..K+F-1), -1 for idle slots
    feeder: tuple = field(init=False, repr=False)
    # stations with fed classes, upstream first: topological on the station
    # feed graph where it is acyclic, a cycle entered at its lowest station
    sweep: tuple = field(init=False, repr=False)
    acyclic: bool = field(init=False, repr=False)  # no cycle in the station feed graph
    # Python floats, for the des budget and the fluid water-filling loops
    alpha: tuple = field(init=False, repr=False)  # per flow: arrival rate
    mu: tuple = field(init=False, repr=False)     # per class: service rate
    w: tuple = field(init=False, repr=False)      # per class: weight, 0 for idle slots
    w_mu: tuple = field(init=False, repr=False)   # per class: server time per unit of weight, w / mu
    # reference structure for the des invariant checks, read-only int8:
    # P[k, l] = 1 iff class l follows class k on a route, C[i, k] = 1 iff
    # station i serves class k
    routing_matrix: np.ndarray = field(init=False, repr=False)
    constituency: np.ndarray = field(init=False, repr=False)
    # the same structure as read from P and C: per class (the classes
    # routed into it, the flow entering at it or -1), per station the
    # classes it serves
    check_structure: tuple = field(init=False, repr=False)
    # fluid.solve_rates memo: the key of each state seen and of each regime
    # solved on this spec -> the regime's RateVector, one per regime; empty
    # for a new spec, and dataclasses.replace too
    _rates_memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = self.num_classes
        routes = tuple(
            tuple(self.class_of[(f, hop)] for hop in range(len(path)))
            for f, path in enumerate(self.flow_paths)
        )
        successor = [-1] * K
        feeder = [-1] * K
        for f, ks in enumerate(routes):
            feeder[ks[0]] = K + f
            for a, b in zip(ks, ks[1:]):
                successor[a] = b
                feeder[b] = a
        flow_of = {k: f for (f, _hop), k in self.class_of.items()}
        weight = [self.weights[flow_of[k]] if k in flow_of else Fraction(0) for k in range(K)]
        members = tuple(
            tuple(k for k in range(K) if self.station_of[k] == i)
            for i in range(self.num_stations)
        )
        fed = tuple(tuple(k for k in ks if k not in self.idle_slots) for ks in members)
        sweep, acyclic = _sweep_order(self.num_stations, routes, self.station_of, fed)
        mu = tuple(float(d.rate) for d in self.service_dist)
        w = tuple(float(x) for x in weight)
        P, C = _derive_matrices(self.num_stations, K, self.class_of, self.station_of, self.flow_paths)
        tables = {
            "routes": routes,
            "egress": _read_only([ks[-1] for ks in routes], np.intp),
            "successor": tuple(successor),
            "members": members,
            "fed": fed,
            "cycles": tuple(_visit_cycle(ks, [weight[k] for k in ks]) for ks in fed),
            "feeder": tuple(feeder),
            "sweep": sweep,
            "acyclic": acyclic,
            "alpha": tuple(float(d.rate) for d in self.arrival_dist),
            "mu": mu,
            "w": w,
            "w_mu": tuple(a / b for a, b in zip(w, mu)),
            "routing_matrix": P,
            "constituency": C,
            "check_structure": _check_structure(P, C, self.class_of, self.num_flows),
        }
        for name, table in tables.items():
            object.__setattr__(self, name, table)
        object.__setattr__(self, "_rates_memo", {})

    # -- views of the tables -------------------------------------------
    def flow_classes(self, f: int) -> tuple:
        """Class ids of flow f in hop order (ingress first)."""
        return self.routes[f]

    @property
    def next_class(self) -> tuple:
        """next_class[k] = class after k on its flow's route, -1 at egress."""
        return self.successor

    def station_classes(self, i: int) -> tuple:
        return self.members[i]

    def visit_cycle(self, i: int) -> tuple:
        """Round-robin visit order at station i: each fed class appears
        w_f * L times per cycle, L the common weight denominator, reduced
        by the gcd of the visit counts."""
        return self.cycles[i]

    @property
    def arrival_rates(self) -> np.ndarray:
        return _read_only(self.alpha)

    @property
    def service_rates(self) -> np.ndarray:
        return _read_only(self.mu)

    def class_weights(self) -> np.ndarray:
        """Per-class scheduler weight w_{ff(k)} as floats (0 for idle slots)."""
        return _read_only(self.w)


def _read_only(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _visit_cycle(ks, ws) -> tuple:
    denom = math.lcm(*(w.denominator for w in ws))
    counts = [int(w * denom) for w in ws]
    # weights are positive, so gcd 0 means the station has no fed class
    g = math.gcd(*counts) or 1
    return tuple(k for k, c in zip(ks, counts) for _ in range(c // g))


def _sweep_order(num_stations, routes, station_of, fed) -> tuple:
    # Kahn's algorithm, lowest ready station first; when only cycles are
    # left, the lowest remaining station goes next and the graph is cyclic
    succ = [set() for _ in range(num_stations)]
    for ks in routes:
        for a, b in zip(ks, ks[1:]):
            if station_of[a] != station_of[b]:
                succ[station_of[a]].add(station_of[b])
    indeg = [0] * num_stations
    for js in succ:
        for j in js:
            indeg[j] += 1
    left = list(range(num_stations))
    order = []
    acyclic = True
    while left:
        i = next((i for i in left if indeg[i] == 0), left[0])
        acyclic = acyclic and indeg[i] == 0
        left.remove(i)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
    return tuple(i for i in order if fed[i]), acyclic


def _derive_matrices(num_stations, num_classes, class_of, station_of, flow_paths):
    P = np.zeros((num_classes, num_classes), dtype=np.int8)
    for f, path in enumerate(flow_paths):
        for hop in range(len(path) - 1):
            P[class_of[(f, hop)], class_of[(f, hop + 1)]] = 1
    C = np.zeros((num_stations, num_classes), dtype=np.int8)
    for k, s in enumerate(station_of):
        C[s, k] = 1
    P.flags.writeable = C.flags.writeable = False
    return P, C


def _check_structure(P, C, class_of, num_flows) -> tuple:
    entering = [-1] * len(P)
    for f in range(num_flows):
        entering[class_of[(f, 0)]] = f
    feeds = tuple((tuple(int(j) for j in np.flatnonzero(col)), f) for col, f in zip(P.T, entering))
    served = tuple(tuple(int(k) for k in np.flatnonzero(row)) for row in C)
    return feeds, served


def build_network(
    flow_paths: Sequence[Sequence[int]],
    *,
    arrival: Sequence[DistributionSpec],
    service: Sequence[Sequence[DistributionSpec]],
    weights: Optional[Sequence] = None,
    threshold_base: float = 1.0,
    hysteresis_gap: float = 0.0,
    num_stations: Optional[int] = None,
    class_ids: Optional[dict] = None,
    idle_slots: Optional[dict] = None,
) -> NetworkSpec:
    """Check every fault, then assemble a NetworkSpec.

    Default numbering assigns the ingress class of flow f the id f and the
    remaining classes sequential ids in (flow, hop) order.  ``class_ids``
    maps (flow, hop) -> class id to impose an explicit numbering instead;
    ``idle_slots`` (class id -> station id) then declares slots that exist
    in the numbering but are fed by no flow.  The keys of ``class_ids``
    must be exactly the (flow, hop) pairs of the paths, and its ids with
    the idle slot ids exactly 0..K-1, each once, K the number of hops plus
    the number of idle slots.

    Raises ValueError before anything is indexed, listing every fault as
    ``<field>: message`` joined by ``"; "``: first the shape and numbering
    faults (``arrival``, ``service`` or ``weights`` without one entry per
    flow, ``flows[f].path``, ``flows[f].service``, ``class_ids``,
    ``idle_slots``), then, once the numbering holds, the rest: no flows,
    ``threshold_base`` outside (0, inf), ``hysteresis_gap`` outside
    [0, inf), a revisited station, flow f not entering at class f, a
    weight that is not a positive rational, a rate outside (0, inf).
    """
    flow_paths = tuple(tuple(int(s) for s in p) for p in flow_paths)
    F = len(flow_paths)
    if num_stations is None:
        num_stations = 1 + max((s for p in flow_paths for s in p), default=-1)
    given = [1] * F if weights is None else list(weights)
    weights = tuple(_weight(w) for w in given)
    arrival = tuple(arrival)
    idle_slots = {int(k): int(s) for k, s in (idle_slots or {}).items()}
    pairs = [(f, hop) for f, path in enumerate(flow_paths) for hop in range(len(path))]
    K = len(pairs) + len(idle_slots)
    if class_ids is None:
        # ingress pairs first, so that flow f enters at class f
        class_of = {p: k for k, p in enumerate(sorted(pairs, key=lambda p: p[1] > 0))}
    else:
        class_of = {tuple(key): int(v) for key, v in class_ids.items()}

    faults = [f"{name}: expected one entry per flow, not {len(v)}"
              for name, v in (("arrival", arrival), ("service", service), ("weights", weights)) if len(v) != F]
    for f, (path, per_hop) in enumerate(zip(flow_paths, service)):
        if not path:
            faults.append(f"flows[{f}].path: expected a nonempty list of station ids")
        faults += [f"flows[{f}].path: station {s} is not in [0, {num_stations})"
                   for s in path if not 0 <= s < num_stations]
        if len(per_hop) != len(path):
            faults.append(f"flows[{f}].service: expected one distribution per hop")
    on_paths = set(pairs)
    faults += [f"class_ids: (flow, hop) {p} has no class id" for p in sorted(on_paths - class_of.keys())]
    faults += [f"class_ids: (flow, hop) {p} is not on a path" for p in sorted(class_of.keys() - on_paths)]
    seen = set()
    for name, k in [("class_ids", k) for k in class_of.values()] + [("idle_slots", k) for k in idle_slots]:
        if not 0 <= k < K:
            faults.append(f"{name}: class id {k} is not in [0, {K})")
        elif k in seen:
            faults.append(f"{name}: class id {k} is used twice")
        seen.add(k)
    faults += [f"idle_slots: station {s} of class {k} is not in [0, {num_stations})"
               for k, s in idle_slots.items() if not 0 <= s < num_stations]
    if faults:
        raise ValueError("; ".join(faults))

    # the numbering holds, so these may index the class map
    h, gap = float(threshold_base), float(hysteresis_gap)
    faults = [] if F else ["flows: expected a nonempty list"]
    if not 0 < h < math.inf:
        faults.append(f"threshold_base: expected a positive finite number, not {h!r}")
    if not 0 <= gap < math.inf:
        faults.append(f"hysteresis_gap: expected a nonnegative finite number, not {gap!r}")
    for f, path in enumerate(flow_paths):
        if len(set(path)) != len(path):
            faults.append(f"flows[{f}].path: revisits a station")
        if class_of[(f, 0)] != f:
            faults.append(f"class_ids: flow {f} enters at class {class_of[(f, 0)]}, not {f}")
        if weights[f] is None:
            faults.append(f"flows[{f}].weight: expected a positive rational, not {given[f]}")
        rates = [("arrival", arrival[f])] + [(f"service[{hop}]", d) for hop, d in enumerate(service[f])]
        faults += [f"flows[{f}].{name}: expected a rate in (0, inf), not {d.rate!r}"
                   for name, d in rates if not 0 < d.rate < math.inf]
    if faults:
        raise ValueError("; ".join(faults))

    station_of = [None] * K
    svc = [DistributionSpec.exponential(1.0)] * K  # idle slots serve nothing
    for (f, hop), k in class_of.items():
        station_of[k] = flow_paths[f][hop]
        svc[k] = service[f][hop]
    for k, s in idle_slots.items():
        station_of[k] = s

    return NetworkSpec(
        num_flows=F,
        num_stations=num_stations,
        num_classes=K,
        flow_paths=flow_paths,
        class_of=class_of,
        station_of=tuple(station_of),
        weights=weights,
        arrival_dist=arrival,
        service_dist=tuple(svc),
        threshold_base=h,
        hysteresis_gap=gap,
        idle_slots=frozenset(idle_slots),
    )


def _weight(w) -> Optional[Fraction]:
    """``w`` as a Fraction, or None unless it is a positive rational."""
    try:
        w = Fraction(w)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None
    return w if w > 0 else None


@dataclass
class ValidationReport:
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Always True: ``build_network`` rejects every faulty network."""
        return True

    def __str__(self):
        return "\n".join(f"warning: {w}" for w in self.warnings) or "valid"


def validate(spec: NetworkSpec) -> ValidationReport:
    """Warnings about a network that ``build_network`` accepted: arrival
    times with bounded support.  Every fault was raised at build time."""
    return ValidationReport([
        f"flow {f}: arrival times have bounded support; long-run "
        "rate guarantees assume unbounded, spread-out interarrivals"
        for f, d in enumerate(spec.arrival_dist) if not d.unbounded_support
    ])


def offered_load(spec: NetworkSpec) -> np.ndarray:
    """Per-station utilization ignoring discarding: sum over the station's
    fed classes of (flow arrival rate) * (mean service time)."""
    load = np.zeros(spec.num_stations)
    for (f, _hop), k in spec.class_of.items():
        load[spec.station_of[k]] += spec.arrival_dist[f].rate * spec.service_dist[k].mean
    return load


def fair_rates(spec: NetworkSpec) -> tuple:
    """The weighted max-min fair rate of each flow, by progressive filling
    (Bertsekas and Gallager, *Data Networks*, 2nd ed., §6.5).

    Every unfrozen flow f grows at w_f per unit of a common level c.
    Station i must keep sum_k r_flow(k) / mu_k <= 1 over its fed classes
    k, which counts jobs per unit of weight as ``_visit_cycle`` serves
    them.  A flow freezes at alpha_f, or at w_f * c when a station on its
    route saturates at level c; each step raises c to the first such
    level.  Floats are summed left to right, in flow and class order.

    Proved (§6.5.2): the result is the one rate vector in which every
    flow below alpha_f crosses a saturated station where its rate per
    unit of weight is the largest.  Argued but not proved: a sink of the
    fluid model has that property, since a flow admitted below alpha_f
    has a queue at the threshold on its route, a backlogged station is
    saturated, and weighted round robin gives its backlogged classes
    equal departures per unit of weight and the others less.  That last
    step compares flows by their class weights, so the claim is for
    per-flow weights, the only kind a NetworkSpec holds.  Only measured:
    wherever ``fluid.integrate`` absorbs, its final ``flow_depart`` equals
    these rates (to 1e-12 in the tests); not every start absorbs.
    """
    w = [float(x) for x in spec.weights]
    flow_of = {k: f for f, ks in enumerate(spec.routes) for k in ks}
    rate = [None] * spec.num_flows  # per flow: its rate, once frozen
    while None in rate:
        demand = [a / wf if r is None else math.inf for a, wf, r in zip(spec.alpha, w, rate)]
        capacity = []  # per station: the level at which it saturates
        for ks in spec.fed:
            load = grow = 0.0
            for k in ks:
                f = flow_of[k]
                if rate[f] is None:
                    grow += w[f] / spec.mu[k]
                else:
                    load += rate[f] / spec.mu[k]
            capacity.append((1.0 - load) / grow if grow else math.inf)
        level = min(demand + capacity)
        for f, c in enumerate(demand):
            if c == level:
                rate[f] = spec.alpha[f]
        for ks, c in zip(spec.fed, capacity):
            if c == level:
                for f in map(flow_of.get, ks):
                    if rate[f] is None:
                        rate[f] = w[f] * level
    return tuple(rate)


# ---------------------------------------------------------------------------
# bundled fixtures


@dataclass(frozen=True)
class SwitchIndices:
    """Queue indices of the 2x2-switch fixture (zero-based; the network
    diagram numbers the same queues 1..8, two per station)."""

    flow1_ingress: int = 0   # diagram queue 1, station 0
    flow2_ingress: int = 1   # diagram queue 2, station 0 (first bottleneck)
    flow3_ingress: int = 2   # diagram queue 3, station 1
    idle_a: int = 3          # diagram queue 4, station 1 (unfed slot)
    flow1_egress: int = 4    # diagram queue 5, station 2
    idle_b: int = 5          # diagram queue 6, station 2 (unfed slot)
    flow2_egress: int = 6    # diagram queue 7, station 3 (second bottleneck)
    flow3_egress: int = 7    # diagram queue 8, station 3


SWITCH = SwitchIndices()


def switch_example_spec(threshold_base: float = 1.0) -> NetworkSpec:
    """Three flows over four stations, wired like a 2-input 2-output switch.

    Flows 0 and 1 enter at station 0; flow 2 enters at station 1.  Flow 1
    shares station 0 with flow 0 and station 3 with flow 2, so its two
    queues (indices 1 and 6) are the bottleneck pair.  All service is
    exponential at rate 1, every arrival process is pareto_paper(0.6), and
    the three weights are equal.  Class ids follow the switch diagram: two
    queue slots per station, which leaves slots 3 and 5 unfed.
    """
    pareto = DistributionSpec.pareto_paper(0.6)
    exp1 = DistributionSpec.exponential(1.0)
    return build_network(
        flow_paths=[(0, 2), (0, 3), (1, 3)],
        arrival=[pareto, pareto, pareto],
        service=[[exp1, exp1]] * 3,
        weights=[1, 1, 1],
        threshold_base=threshold_base,
        num_stations=4,
        class_ids={
            (0, 0): SWITCH.flow1_ingress,
            (1, 0): SWITCH.flow2_ingress,
            (2, 0): SWITCH.flow3_ingress,
            (0, 1): SWITCH.flow1_egress,
            (1, 1): SWITCH.flow2_egress,
            (2, 1): SWITCH.flow3_egress,
        },
        idle_slots={SWITCH.idle_a: 1, SWITCH.idle_b: 2},
    )


def tandem_spec(
    lam: float,
    mu1: float,
    mu2: float,
    *,
    threshold_base: float = 1.0,
    arrival_kind: str = "exponential",
) -> NetworkSpec:
    """Single flow through two stations in series."""
    if arrival_kind == "exponential":
        arr = DistributionSpec.exponential(lam)
    elif arrival_kind == "pareto_paper":
        arr = DistributionSpec.pareto_paper(lam)
    elif arrival_kind == "deterministic":
        # a zero rate is an infinite interarrival time, which build_network rejects
        arr = DistributionSpec.deterministic(math.inf if lam == 0 else 1.0 / lam)
    else:
        raise ValueError(
            f"arrival_kind must be exponential, pareto_paper or deterministic, not {arrival_kind!r}"
        )
    return build_network(
        flow_paths=[(0, 1)],
        arrival=[arr],
        service=[[DistributionSpec.exponential(mu1), DistributionSpec.exponential(mu2)]],
        threshold_base=threshold_base,
    )
