"""Candidate equilibrium sets of the fluid model and numerical checks of
the two absorption conditions:

* linear-time absorption: every fluid trajectory reaches the scaled set
  within a time bounded by a constant times its initial L1 distance;
* rate agreement: while the state is inside the scaled set, the per-flow
  departure rates equal the target vector R.

A set is described in unit-threshold coordinates as a finite union of
product pieces: intervals over an explicit subset of queue coordinates,
optionally with a convex polygon over one designated pair.  Coordinates a
piece does not mention are unconstrained, which makes projections of a
set (hitting times measured on a few phase-portrait coordinates only)
expressible with the same machinery.  Residual arrival clocks and service
gates must be zero on a full set, so they contribute their own magnitude
to the distance; projections drop that requirement.

The scaled set at threshold hbar contains x iff x/hbar is in the unit
set, giving the exact scale law dist(x, hbar*S) = hbar * dist(x/hbar, S).
``verify_C1`` and ``verify_C2`` first check that the set fits the network.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .fluid import FluidState, FluidTrajectory, departure_rates_at, integrate
from .network import SWITCH, NetworkSpec

__all__ = [
    "Piece",
    "EquilibriumSet",
    "SamplePoint",
    "SamplePlan",
    "C1Report",
    "C2Report",
    "distance",
    "switch_equilibrium_set",
    "switch_tilde_set",
    "tandem_point_set",
    "tandem_tilde_set",
    "tandem_wedge_set",
    "verify_C1",
    "verify_C2",
]


def _interval_dist(x: float, lo: float, hi: float) -> float:
    if x < lo:
        return lo - x
    if x > hi:
        return x - hi
    return 0.0


def _nearest_edge(x: float, y: float, edges: tuple) -> float:
    """L1 distance from the point (x, y) to the nearest of ``edges``, each
    a segment ``(p0, p1, d0, d1)``: the points (p0 + t*d0, p1 + t*d1), t in
    [0, 1].

    The objective is piecewise linear in t with kinks where a coordinate
    deviation changes sign, so the exact minimizer is among the segment
    ends and those kinks.  The ends take the deviations a - t*d at t = 0
    and 1 with the same bits, and a kink outside (0, 1) would clamp to an
    end already measured.  Runs on Python floats, as a C1 start on the
    switch measures about 5 polygons here, 22 segments.
    """
    best = math.inf
    for p0, p1, d0, d1 in edges:
        a0, a1 = x - p0, y - p1
        dev = abs(a0) + abs(a1)  # t = 0
        if dev < best:
            best = dev
        dev = abs(a0 - d0) + abs(a1 - d1)  # t = 1
        if dev < best:
            best = dev
        if d0 != 0.0:
            t = a0 / d0
            if 0.0 < t < 1.0:
                dev = abs(a0 - t * d0) + abs(a1 - t * d1)
                if dev < best:
                    best = dev
        if d1 != 0.0:
            t = a1 / d1
            if 0.0 < t < 1.0:
                dev = abs(a0 - t * d0) + abs(a1 - t * d1)
                if dev < best:
                    best = dev
    return best


def _polygon_edges(verts: tuple) -> tuple:
    """The edges ``(p0, p1, d0, d1)`` of a polygon given by its vertices."""
    return tuple((p[0], p[1], r[0] - p[0], r[1] - p[1]) for p, r in zip(verts, verts[1:] + verts[:1]))


def _edges_dist(x: float, y: float, edges: tuple) -> float:
    """L1 distance from the point (x, y) to a convex polygon given by its
    CCW ``_polygon_edges``."""
    for p0, p1, d0, d1 in edges:
        if d0 * (y - p1) - d1 * (x - p0) < 0.0:
            return _nearest_edge(x, y, edges)
    return 0.0


@dataclass(frozen=True)
class Piece:
    """One product piece in unit-threshold queue coordinates.

    ``bounds`` maps class index -> (lo, hi); indices not mentioned (and
    not covered by the polygon pair) are unconstrained.
    """

    bounds: tuple                            # ((coord, lo, hi), ...)
    poly_coords: Optional[tuple] = None      # pair of class indices
    poly_vertices: Optional[tuple] = None    # CCW vertices over that pair

    def q_distance(self, q_unit) -> float:
        """L1 distance from the unit point ``q_unit``, a list of floats."""
        total = 0.0  # left to right: builtin sum rounds differently on 3.12+
        for k, lo, hi in self.bounds:
            total += _interval_dist(q_unit[k], lo, hi)
        if self.poly_coords is not None:
            i, j = self.poly_coords
            total += _edges_dist(q_unit[i], q_unit[j], self._edges)
        return total

    @cached_property
    def _edges(self) -> tuple:
        return _polygon_edges(self.poly_vertices)

    @cached_property
    def _compact(self) -> tuple:
        """The coordinates the piece reads, its bounds' then its polygon
        pair, and the piece over a row of just those, in that order: its
        distance from that row equals ``q_distance`` of the full row."""
        coords = tuple(k for k, _, _ in self.bounds)
        bounds = tuple((n, lo, hi) for n, (_, lo, hi) in enumerate(self.bounds))
        if self.poly_coords is None:
            return coords, Piece(bounds)
        n = len(coords)
        return coords + tuple(self.poly_coords), Piece(bounds, (n, n + 1), self.poly_vertices)

    @cached_property
    def _box(self) -> tuple:
        """The piece's bounding box ``((coord, lo, hi), ...)``, one entry
        per term of ``q_distance``: its bounds, then its polygon pair's
        vertex ranges; and the sum of each entry's largest magnitude.  The
        L1 gap between a point and the box is at most the point's
        distance."""
        box = self.bounds
        if self.poly_coords is not None:
            box += tuple((k, min(xs), max(xs)) for k, xs in zip(self.poly_coords, zip(*self.poly_vertices)))
        return box, sum(max(abs(lo), abs(hi)) for _, lo, hi in box)

    def restrict(self, coords) -> "Piece":
        keep = set(coords)
        bounds = tuple(b for b in self.bounds if b[0] in keep)
        if self.poly_coords is not None and not set(self.poly_coords) <= keep:
            raise ValueError("cannot project away part of a polygon pair")
        return replace(self, bounds=bounds)

    def sample_q(self, num_classes: int, rng: np.random.Generator) -> np.ndarray:
        """One generic point of the piece (unconstrained coordinates 0)."""
        q = np.zeros(num_classes)
        for k, lo, hi in self.bounds:
            q[k] = lo + rng.random() * (hi - lo)
        if self.poly_coords is not None:
            verts = np.asarray(self.poly_vertices, dtype=float)
            lo = verts.min(axis=0)
            hi = verts.max(axis=0)
            for _ in range(1000):
                p = lo + rng.random(2) * (hi - lo)
                if _edges_dist(p[0], p[1], self._edges) == 0.0:
                    break
            else:
                p = verts.mean(axis=0)
            i, j = self.poly_coords
            q[i], q[j] = p
        return q

    def centroid_q(self, num_classes: int) -> np.ndarray:
        q = np.zeros(num_classes)
        for k, lo, hi in self.bounds:
            q[k] = 0.5 * (lo + hi)
        if self.poly_coords is not None:
            verts = np.asarray(self.poly_vertices, dtype=float)
            i, j = self.poly_coords
            q[i], q[j] = verts.mean(axis=0)
        return q


def _box_bounds(values: dict) -> tuple:
    return tuple((k, lo, hi) for k, (lo, hi) in sorted(values.items()))


@dataclass(frozen=True)
class EquilibriumSet:
    """Finite union of pieces; closed and bounded on its constrained
    coordinates.  ``constrain_residuals``: membership requires all
    residual clocks and gates to be zero (true for full sets, dropped for
    phase-portrait projections)."""

    num_classes: int
    num_flows: int
    pieces: tuple
    constrain_residuals: bool = True

    def q_distance(self, q_unit) -> float:
        return min(p.q_distance(q_unit) for p in self.pieces)

    def check_fits(self, spec: NetworkSpec) -> None:
        """Raise ValueError unless the set has the numbers of classes and
        flows of ``spec``: a set built for another network measures the
        wrong coordinates, or indexes past its own."""
        shape, net = (self.num_classes, self.num_flows), (spec.num_classes, spec.num_flows)
        if shape != net:
            raise ValueError(f"the set has (classes, flows) = {shape}, the network {net}")

    def projected(self, coords) -> "EquilibriumSet":
        """Projection onto a coordinate subset: hitting times measured on
        those phase-portrait coordinates only."""
        return EquilibriumSet(
            num_classes=self.num_classes,
            num_flows=self.num_flows,
            pieces=tuple(p.restrict(coords) for p in self.pieces),
            constrain_residuals=False,
        )


def distance(state: FluidState, eqset: EquilibriumSet) -> float:
    """Exact L1 distance from ``state`` to the set scaled by ``state.hbar``
    (the norm all absorption-time bounds are stated in).  Raises
    ValueError unless ``state.hbar`` is positive and finite."""
    hbar = state.hbar
    if not 0.0 < hbar < math.inf:
        raise ValueError("hbar must be positive and finite")
    d = hbar * eqset.q_distance([x / hbar for x in state.q.tolist()])
    if eqset.constrain_residuals:
        for x in state.u.tolist() + state.v.tolist():  # left to right, as in q_distance
            d += abs(x)
    return d


# ---------------------------------------------------------------------------
# bundled set constructions


# queues of the switch fixture that are settled in its absorbing sets:
# flow 1's ingress and flow 3's egress at the threshold, the rest empty
_SWITCH_SETTLED = {
    SWITCH.flow1_ingress: (1.0, 1.0),
    SWITCH.flow3_egress: (1.0, 1.0),
    SWITCH.flow3_ingress: (0.0, 0.0),
    SWITCH.idle_a: (0.0, 0.0),
    SWITCH.flow1_egress: (0.0, 0.0),
    SWITCH.idle_b: (0.0, 0.0),
}
_SWITCH_PAIR = (SWITCH.flow2_ingress, SWITCH.flow2_egress)
_TANDEM_PAIR = (0, 1)
_RIGHT_EDGE = ((1.0, 1.0), (0.0, 1.0))   # {1} x [0, 1]
_TOP_EDGE = ((0.0, 1.0), (1.0, 1.0))     # [0, 1] x {1}


def _boxes(pair: tuple, spans: tuple, settled: dict) -> tuple:
    """One box piece per (x span, y span) in ``spans`` over the queue
    ``pair``, every queue in ``settled`` held in its own span."""
    i, j = pair
    return tuple(Piece(bounds=_box_bounds(settled | {i: x, j: y})) for x, y in spans)


def _band_with_edge(a: float, pair: tuple, settled: dict) -> tuple:
    """The band of half-width a over the queue ``pair``,

        {(x, y): x in [0,1], y in [1 - a*x, 1 + a*(1-x)]},

    then the right edge {1} x [0, 1], with the ``settled`` queues held in
    their spans on both pieces."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie strictly between 0 and 1")
    band = Piece(
        bounds=_box_bounds(settled),
        poly_coords=pair,
        poly_vertices=((0.0, 1.0), (1.0, 1.0 - a), (1.0, 1.0), (0.0, 1.0 + a)),
    )
    return (band,) + _boxes(pair, (_RIGHT_EDGE,), settled)


def switch_equilibrium_set(a: float) -> EquilibriumSet:
    """Enlarged absorbing set of the switch fixture (unit coordinates).

    Queues 1 and 8 of the diagram sit at the threshold, queues 3..6 are
    empty, and the bottleneck pair (queues 2 and 7) lies in the union of a
    diagonal band of half-width a and the right edge segment:

        (q2, q7) in {(x, y): x in [0,1], y in [1 - a*x, 1 + a*(1-x)]}
                   union {1} x [0, 1].
    """
    return EquilibriumSet(8, 3, _band_with_edge(a, _SWITCH_PAIR, _SWITCH_SETTLED))


def switch_tilde_set() -> EquilibriumSet:
    """Minimal absorbing set of the switch fixture: the two segments
    [0,1] x {1} and {1} x [0,1] over the bottleneck pair."""
    return EquilibriumSet(8, 3, _boxes(_SWITCH_PAIR, (_TOP_EDGE, _RIGHT_EDGE), _SWITCH_SETTLED))


def tandem_point_set() -> EquilibriumSet:
    """Absorbing point (0, 1) of the two-station tandem with distinct
    service rates (unit coordinates)."""
    return EquilibriumSet(2, 1, _boxes(_TANDEM_PAIR, (((0.0, 0.0), (1.0, 1.0)),), {}))


def tandem_tilde_set() -> EquilibriumSet:
    """Minimal absorbing set of the equal-rate tandem: the two segments
    {1} x [0,1] and [0,1] x {1}."""
    return EquilibriumSet(2, 1, _boxes(_TANDEM_PAIR, (_RIGHT_EDGE, _TOP_EDGE), {}))


def tandem_wedge_set(a: float) -> EquilibriumSet:
    """Enlarged absorbing set for the equal-rate tandem: the same band
    geometry as the switch set, over (q1, q2)."""
    return EquilibriumSet(2, 1, _band_with_edge(a, _TANDEM_PAIR, {}))


# ---------------------------------------------------------------------------
# condition (C1): linear-time absorption


@dataclass
class SamplePoint:
    q: np.ndarray
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    label: str = ""


@dataclass
class SamplePlan:
    points: list
    time_budget: float
    hit_tol: Optional[float] = None  # defaults to 1e-6 * hbar


@dataclass
class C1Report:
    hbar: float
    labels: list
    initial_distances: np.ndarray
    hit_times: np.ndarray              # nan where the budget ran out
    ratios: np.ndarray                 # nan where distance <= tol or no hit
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_ratio(self) -> float:
        """Empirical absorption-time constant: the largest observed
        hitting-time/distance ratio over the samples.  No extrapolation
        beyond the samples is implied."""
        finite = self.ratios[np.isfinite(self.ratios)]
        return float(finite.max()) if len(finite) else 0.0

    def max_ratio_for(self, label: str) -> float:
        sel = [
            r for l, r in zip(self.labels, self.ratios)
            if l == label and np.isfinite(r)
        ]
        return float(max(sel)) if sel else 0.0

    def to_dict(self) -> dict:
        def clean(xs):
            return [float(x) if np.isfinite(x) else None for x in xs]

        return {
            "hbar": self.hbar,
            "labels": list(self.labels),
            "initial_distances": clean(self.initial_distances),
            "hit_times": clean(self.hit_times),
            "ratios": clean(self.ratios),
            "max_ratio": self.max_ratio,
            "violations": list(self.violations),
            "ok": self.ok,
        }


def _kinks(piece: Piece, x0: list, dx: list) -> list:
    """Fractions f in (0, 1) at which the piece's distance from the unit
    point x0 + f*dx may bend: a bounded coordinate crossing lo or hi, and
    the polygon pair crossing a vertex coordinate or an edge's supporting
    line.  Between consecutive kinks the distance is linear in f."""
    fracs = []

    def crossing(start, slope, level):
        if slope != 0.0:
            f = (level - start) / slope
            if 0.0 < f < 1.0:
                fracs.append(f)

    for k, lo, hi in piece.bounds:
        crossing(x0[k], dx[k], lo)
        crossing(x0[k], dx[k], hi)
    if piece.poly_coords is not None:
        i, j = piece.poly_coords
        verts = piece.poly_vertices
        for n in range(len(verts)):
            (px, py), (rx, ry) = verts[n], verts[(n + 1) % len(verts)]
            crossing(x0[i], dx[i], px)
            crossing(x0[j], dx[j], py)
            # side of the edge's supporting line: linear in f, zero at the kink
            ex, ey = rx - px, ry - py
            crossing(ex * (x0[j] - py) - ey * (x0[i] - px), ex * dx[j] - ey * dx[i], 0.0)
    return sorted(set(fracs))


def _first_below(dist, tol: float, lo: float, hi: float, f: float) -> float:
    """Smallest float in (lo, hi] with dist <= tol, given dist(lo) > tol
    >= dist(hi) and an estimate f: probe f, then step away from it by
    doubling ulps until the side flips, then halve down to adjacent
    floats."""
    f = min(max(f, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    step = None
    while True:
        if not lo < f < hi:
            f = lo + 0.5 * (hi - lo)
            if not lo < f < hi:
                return hi
        if step is None:
            step = math.ulp(f)
        if dist(f) <= tol:
            hi, f = f, f - step
        else:
            lo, f = f, f + step
        step *= 2.0


def _piece_hit(piece: Piece, hbar: float, tol: float, q0, q1, r0, r1) -> Optional[float]:
    """Smallest fraction f in [0, 1] at which the segment from the queue
    row ``q0`` to ``q1``, residuals ``r0`` to ``r1``, has distance <= tol
    to the piece scaled by ``hbar``, or None.

    The distance is convex and piecewise linear in f, with its kinks at
    known fractions (``_kinks``).  It is evaluated at the kinks in order
    until it drops to tol, or rises (past its minimum, so the piece is
    missed on this segment).  The crossing is interpolated linearly
    between the last two kinks, and ``_first_below`` turns that estimate
    into the smallest float fraction whose distance is <= tol.  Rows are
    interpolated and residuals summed on lists of floats, left to right as
    in ``distance``, on just the coordinates the piece reads
    (``Piece._compact``), each by the expression of the full row.
    """
    coords, unit = piece._compact
    base = [q0[k] for k in coords]
    step = [q1[k] - q0[k] for k in coords]
    r_step = [b - a for a, b in zip(r0, r1)]

    def dist(f):
        d = unit.q_distance([(a + f * s) / hbar for a, s in zip(base, step)]) * hbar
        for a, s in zip(r0, r_step):
            d += a + f * s
        return d

    x0 = [a / hbar for a in base]
    dx = [s / hbar for s in step]
    f_a, d_a = 0.0, dist(0.0)
    if d_a <= tol:
        return 0.0
    for f_b in _kinks(unit, x0, dx) + [1.0]:
        d_b = dist(f_b)
        if d_b <= tol:
            guess = f_a + (d_a - tol) / (d_a - d_b) * (f_b - f_a)
            return _first_below(dist, tol, f_a, f_b, guess)
        if d_b > d_a:
            return None
        f_a, d_a = f_b, d_b
    return None


def _box_gap(box: tuple, q0: list, q1: list, hbar: float) -> float:
    """L1 gap between the bounding box of the rows ``q0`` and ``q1`` and
    a piece's ``box`` (``Piece._box``) scaled by ``hbar``, over the box's
    coordinates."""
    gap = 0.0
    for k, a, b in box:
        lo, hi = q0[k], q1[k]
        if lo > hi:
            lo, hi = hi, lo
        x = a * hbar - hi
        if x > 0.0:
            gap += x
        else:
            x = lo - b * hbar
            if x > 0.0:
                gap += x
    return gap


# rounding slack of the hit search's pruning, relative to the magnitude of
# the coordinates and to hbar: 2**16 unit roundoffs, far above the few ulps
# per term that interpolating a row and measuring its distance can lose;
# the share of hbar covers unit coordinates that underflow
_PRUNE_SLACK = 2.0 ** -36


def _first_hit(traj: FluidTrajectory, eqset: EquilibriumSet, tol: float) -> Optional[float]:
    """Earliest trajectory time with distance <= tol to the set scaled by
    ``traj.hbar``, or None.

    On each segment of ``traj.rows`` every piece in reach is searched by
    ``_piece_hit``.  A piece is out of reach when the L1 gap between the
    segment's bounding box and the piece's, scaled by hbar
    (``Piece._box``), exceeds tol by more than a rounding slack that
    scales with hbar and the coordinates' magnitude.  The gap is a lower
    bound on every distance the search measures, whose residuals are
    nonnegative, so a skipped piece is never hit there.  A C1 start on the
    switch takes about 24 us here, and searches 1.16 of its 3.44
    (segment, piece) pairs.
    """
    hbar, rows, pieces = traj.hbar, traj.rows, eqset.pieces
    residuals = eqset.constrain_residuals
    hbar_slack = _PRUNE_SLACK * hbar
    for i in range(len(rows) - 1):
        row0, row1 = rows[i], rows[i + 1]
        t0, t1 = row0[0], row1[0]
        if t1 <= t0:
            continue
        q0, q1 = row0[1], row1[1]
        reach = tol + hbar_slack + _PRUNE_SLACK * (sum(map(abs, q0)) + sum(map(abs, q1)))
        # residual clocks, then gates, which a projection drops
        r0, r1 = (row0[2] + row0[3], row1[2] + row1[3]) if residuals else ((), ())
        hits = []
        for piece in pieces:
            box, box_scale = piece._box
            if _box_gap(box, q0, q1, hbar) > reach + hbar_slack * box_scale:
                continue
            f = _piece_hit(piece, hbar, tol, q0, q1, r0, r1)
            if f is not None:
                hits.append(t0 + f * (t1 - t0))
        if hits:
            return min(hits)
    return None


def verify_C1(
    spec: NetworkSpec,
    eqset: EquilibriumSet,
    hbar: float,
    plan: SamplePlan,
) -> C1Report:
    """Integrate from every sampled start and record hit-time/distance.

    A sample whose trajectory has not reached the scaled set within the
    plan's time budget is reported as a violation (a possible failure of
    linear-time absorption, or an insufficient budget; the report does not
    guess which).  Passing a projected set measures hitting on the
    projection's phase-portrait coordinates only.  Raises ValueError
    unless the plan's ``hit_tol``, when given, lies in [0, inf).
    """
    eqset.check_fits(spec)
    if plan.hit_tol is not None and not 0.0 <= plan.hit_tol < math.inf:
        # a negative or nan tolerance is never met, so every start would
        # read as a failure to absorb
        raise ValueError(f"hit_tol must be nonnegative and finite, not {plan.hit_tol!r}")
    tol = plan.hit_tol if plan.hit_tol is not None else 1e-6 * hbar
    labels, d0s, hits, ratios = [], [], [], []
    violations = []
    for idx, pt in enumerate(plan.points):
        state = FluidState.initial(spec, pt.q, hbar, u=pt.u, v=pt.v)
        d0 = distance(state, eqset)
        traj = integrate(state, spec, plan.time_budget)
        hit = 0.0 if d0 <= tol else _first_hit(traj, eqset, tol)
        labels.append(pt.label)
        d0s.append(d0)
        if hit is None:
            hits.append(np.nan)
            ratios.append(np.nan)
            violations.append(
                f"sample {idx} ({pt.label or 'unlabeled'}): no absorption within "
                f"budget {plan.time_budget} (initial distance {d0:.6g})"
            )
            continue
        hits.append(hit)
        ratios.append(hit / d0 if d0 > tol else np.nan)
    return C1Report(
        hbar=hbar,
        labels=labels,
        initial_distances=np.array(d0s),
        hit_times=np.array(hits),
        ratios=np.array(ratios),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# condition (C2): rates inside the set


@dataclass
class C2Report:
    hbar: float
    target: np.ndarray
    flow_rates: np.ndarray       # (samples, flows)
    max_deviation: float

    @property
    def ok(self) -> bool:
        return bool(self.max_deviation <= 1e-9)

    def to_dict(self) -> dict:
        return {
            "hbar": self.hbar,
            "target": self.target.tolist(),
            "flow_rates": self.flow_rates.tolist(),
            "max_deviation": self.max_deviation,
            "ok": self.ok,
        }


def member_states(
    eqset: EquilibriumSet, hbar: float, spec: NetworkSpec, *, per_piece: int = 12, seed: int = 0
) -> list:
    """Generic member states of the scaled set (residuals zero): random
    points of each piece plus its centroid."""
    if per_piece < 0 or seed < 0:
        raise ValueError(f"per_piece and seed must be nonnegative, not {per_piece} and {seed}")
    rng = np.random.default_rng(seed)
    states = []
    for piece in eqset.pieces:
        qs = [piece.sample_q(eqset.num_classes, rng) for _ in range(per_piece)]
        qs.append(piece.centroid_q(eqset.num_classes))
        for q in qs:
            states.append(FluidState.initial(spec, q * hbar, hbar))
    return states


def verify_C2(
    spec: NetworkSpec,
    eqset: EquilibriumSet,
    hbar: float,
    target_rates,
    *,
    per_piece: int = 12,
    seed: int = 0,
) -> C2Report:
    """Sample member states and compare fluid departure rates with R."""
    eqset.check_fits(spec)
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    R = np.asarray(target_rates, dtype=float)
    if R.shape != (spec.num_flows,):
        got = len(R) if R.ndim == 1 else f"shape {R.shape}"
        raise ValueError(f"expected one target rate per flow ({spec.num_flows}), not {got}")
    states = member_states(eqset, hbar, spec, per_piece=per_piece, seed=seed)
    rates = np.array([departure_rates_at(st, spec) for st in states])
    max_dev = float(np.max(np.abs(rates - R))) if len(rates) else 0.0
    return C2Report(hbar=hbar, target=R, flow_rates=rates, max_deviation=max_dev)
