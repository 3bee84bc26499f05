import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnet.absorption import (
    EquilibriumSet,
    Piece,
    SamplePlan,
    SamplePoint,
    distance,
    member_states,
    switch_equilibrium_set,
    switch_tilde_set,
    tandem_point_set,
    tandem_tilde_set,
    tandem_wedge_set,
    verify_C1,
    verify_C2,
    _edges_dist,
    _first_hit,
    _kinks,
    _nearest_edge,
    _piece_hit,
    _polygon_edges,
)
from qnet.fluid import FluidState, FluidTrajectory, integrate
from qnet.network import SWITCH, switch_example_spec, tandem_spec


def switch_state(q2, q7, hbar=1.0, q1=None, q8=None):
    q = np.zeros(8)
    q[SWITCH.flow1_ingress] = hbar if q1 is None else q1
    q[SWITCH.flow3_egress] = hbar if q8 is None else q8
    q[SWITCH.flow2_ingress] = q2
    q[SWITCH.flow2_egress] = q7
    return FluidState.initial(switch_example_spec(), q, hbar)


def numpy_segment_dist(x, p, r):
    """The numpy form of the L1 distance from x to the segment p + t*(r - p),
    t in [0, 1], kept as the oracle of ``_nearest_edge``: x, p and r are
    arrays of two floats."""
    d = r - p
    a = x - p
    cands = [0.0, 1.0]
    for c in range(2):
        if d[c] != 0.0:
            cands.append(a[c] / d[c])
    best = np.inf
    for t in cands:
        t = min(max(t, 0.0), 1.0)
        dev0, dev1 = abs(a[0] - t * d[0]), abs(a[1] - t * d[1])
        best = min(best, float(dev0 + dev1))
    return best


def numpy_polygon_dist(x, verts):
    """The numpy form of the L1 distance from x to a convex polygon given by
    CCW vertices, kept as the oracle of ``_edges_dist``."""
    m = len(verts)
    inside = True
    for i in range(m):
        p, r = verts[i], verts[(i + 1) % m]
        cross = (r[0] - p[0]) * (x[1] - p[1]) - (r[1] - p[1]) * (x[0] - p[0])
        if cross < 0.0:
            inside = False
            break
    if inside:
        return 0.0
    return min(numpy_segment_dist(x, verts[i], verts[(i + 1) % m]) for i in range(m))


@st.composite
def band_points(draw):
    """The vertices of a band of ``_band_with_edge`` and a point inside it,
    on one of its edges, at one of its vertices or anywhere near it."""
    a = draw(st.floats(0.001, 0.999))
    verts = ((0.0, 1.0), (1.0, 1.0 - a), (1.0, 1.0), (0.0, 1.0 + a))
    kind = draw(st.sampled_from(["inside", "edge", "vertex", "near"]))
    if kind == "vertex":
        return verts, draw(st.sampled_from(verts))
    if kind == "edge":
        n = draw(st.integers(0, 3))
        (px, py), (rx, ry) = verts[n], verts[(n + 1) % 4]
        t = draw(st.floats(0.0, 1.0))
        return verts, (px + t * (rx - px), py + t * (ry - py))
    if kind == "inside":
        x = draw(st.floats(0.0, 1.0))
        return verts, (x, draw(st.floats(1.0 - a * x, 1.0 + a * (1.0 - x))))
    return verts, (draw(st.floats(-1.0, 3.0)), draw(st.floats(-1.0, 3.0)))


@settings(max_examples=300, deadline=None)
@given(band_points())
def test_float_distances_equal_the_numpy_oracle(case):
    verts, (x, y) = case
    xy, arr = np.array([x, y]), np.asarray(verts)
    assert _edges_dist(x, y, _polygon_edges(verts)) == numpy_polygon_dist(xy, arr)
    for n in range(4):
        p, r = verts[n], verts[(n + 1) % 4]
        edge = (p[0], p[1], r[0] - p[0], r[1] - p[1])
        assert _nearest_edge(x, y, (edge,)) == numpy_segment_dist(xy, arr[n], arr[(n + 1) % 4])
    piece = Piece(bounds=((2, 0.0, 0.0),), poly_coords=(0, 1), poly_vertices=verts)
    assert piece.q_distance([x, y, 0.25]) == float(sum([0.25, numpy_polygon_dist(xy, arr)]))


def test_distances_sum_left_to_right():
    # builtin sum() is compensated for exact floats from Python 3.12 on: it
    # gives 1.0 for ten deviations of 0.1 there and 0.9999999999999999 on
    # 3.11, so a distance summed by it would depend on the Python version
    piece = Piece(bounds=tuple((k, 0.0, 0.0) for k in range(10)))
    assert piece.q_distance([0.1] * 10) == 0.9999999999999999
    eqset = EquilibriumSet(5, 4, (Piece(bounds=((0, 0.0, 0.0),)),))
    state = FluidState(np.array([0.1, 0.0, 0.0, 0.0, 0.0]), np.full(4, 0.1), np.full(5, 0.1), 1.0)
    assert distance(state, eqset) == 0.9999999999999999


class TestDistance:
    def test_member_distance_zero(self):
        eq = switch_equilibrium_set(0.5)
        assert distance(switch_state(0.5, 1.0), eq) == 0.0
        assert distance(switch_state(1.0, 0.3), eq) == 0.0

    def test_epsilon_above_tilde_set(self):
        eq = switch_tilde_set()
        eps = 0.01
        assert distance(switch_state(0.5, 1.0 + eps), eq) == pytest.approx(eps)

    def test_tandem_point_l1(self):
        eq = tandem_point_set()
        spec = tandem_spec(1.0, 0.8, 0.5)
        st = FluidState.initial(spec, [0.7, 2.4], 1.0)
        assert distance(st, eq) == pytest.approx(0.7 + 1.4)

    def test_residuals_add_to_distance(self):
        eq = tandem_point_set()
        spec = tandem_spec(1.0, 0.8, 0.5)
        st = FluidState.initial(spec, [0.0, 1.0], 1.0, u=[0.25], v=[0.5, 0.0])
        assert distance(st, eq) == pytest.approx(0.75)

    def test_scale_law_exact(self):
        eq = switch_equilibrium_set(0.4)
        for hbar in (0.5, 1.0, 7.0):
            st = switch_state(0.3 * hbar, 1.6 * hbar, hbar=hbar)
            unit = switch_state(0.3, 1.6, hbar=1.0)
            assert distance(st, eq) == pytest.approx(
                hbar * distance(unit, eq), rel=1e-15
            )

    def test_band_membership_examples(self):
        eq = switch_equilibrium_set(0.5)
        # (0.5, 1.0): band interval at x=0.5 is [0.75, 1.25]
        assert distance(switch_state(0.5, 1.0), eq) == 0.0
        # (1.0, 0.3): right edge segment
        assert distance(switch_state(1.0, 0.3), eq) == 0.0
        # (0.2, 0.2): below the band's lower edge 1 - 0.5*0.2 = 0.9
        assert distance(switch_state(0.2, 0.2), eq) > 0.0

    def test_band_edge_distance(self):
        eq = switch_equilibrium_set(0.5)
        # straight below the lower edge at x=0.2: deficit to y=0.9
        d = distance(switch_state(0.2, 0.2), eq)
        assert d == pytest.approx(0.7, abs=1e-12)

    def test_metric_projection_bound(self):
        # distance(x) <= |x - e| for every member e
        eq = switch_equilibrium_set(0.5)
        spec = switch_example_spec()
        x = switch_state(2.0, 0.1)
        members = member_states(eq, 1.0, spec, per_piece=500, seed=3)
        d = distance(x, eq)
        for e in members:
            direct = (
                np.abs(x.q - e.q).sum()
                + np.abs(x.u - e.u).sum()
                + np.abs(x.v - e.v).sum()
            )
            assert d <= direct + 1e-12

    def test_hbar_must_be_positive(self):
        st = switch_state(0.5, 0.5)
        with pytest.raises(ValueError, match="hbar must be positive"):
            distance(FluidState(st.q, st.u, st.v, 0.0), switch_equilibrium_set(0.5))

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.inf, np.nan])
    def test_hbar_not_positive_and_finite_rejected(self, hbar):
        # hbar nan used to measure nan, and hbar inf inf
        st = switch_state(0.5, 0.5)
        with pytest.raises(ValueError, match="^hbar must be positive and finite$"):
            distance(FluidState(st.q, st.u, st.v, hbar), switch_equilibrium_set(0.5))

    def test_bad_band_parameter(self):
        for a in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                switch_equilibrium_set(a)


class TestVerifyC1:
    def test_tandem_point_absorption(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        grid = np.linspace(0.0, 3.0, 4)
        plan = SamplePlan(
            points=[SamplePoint(q=np.array([a, b]), label="grid") for a in grid for b in grid],
            time_budget=100.0,
        )
        report = verify_C1(spec, tandem_point_set(), 1.0, plan)
        assert report.ok
        assert np.isfinite(report.max_ratio)

    def test_analytic_hitting_time(self):
        # from (2.5, 0.7) the absorbing point is reached at exactly t=4.4
        spec = tandem_spec(1.0, 0.8, 0.5)
        plan = SamplePlan(
            points=[SamplePoint(q=np.array([2.5, 0.7]))],
            time_budget=50.0,
            hit_tol=1e-12,  # the default 1e-6*hbar fires tol/speed early
        )
        report = verify_C1(spec, tandem_point_set(), 1.0, plan)
        assert report.hit_times[0] == pytest.approx(4.4, abs=1e-6)

    def test_equal_rates_blowup_detected(self):
        spec = tandem_spec(1.0, 0.5, 0.5)
        eps = [0.1, 0.01, 0.001]
        plan = SamplePlan(
            points=[SamplePoint(q=np.array([1.0, 1.0 + e])) for e in eps],
            time_budget=50.0,
        )
        report = verify_C1(spec, tandem_tilde_set(), 1.0, plan)
        ratios = report.ratios
        # analytic ratio (hbar + eps) / (mu * eps): 22, 202, 2002
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 50 * ratios[0] > 1000

    def test_equal_rates_wedge_bounded(self):
        spec = tandem_spec(1.0, 0.5, 0.5)
        eps = [0.1, 0.01, 0.001]
        plan = SamplePlan(
            points=[SamplePoint(q=np.array([1.0, 1.0 + e])) for e in eps],
            time_budget=50.0,
        )
        report = verify_C1(spec, tandem_wedge_set(0.5), 1.0, plan)
        assert report.ok
        # ratio 1/(a*mu) = 4, independent of eps (hit fires hit_tol early)
        assert report.ratios == pytest.approx([4.0, 4.0, 4.0], abs=0.01)

    def test_budget_exhaustion_flagged(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        plan = SamplePlan(
            points=[SamplePoint(q=np.array([3.0, 3.0]))], time_budget=0.5
        )
        report = verify_C1(spec, tandem_point_set(), 1.0, plan)
        assert not report.ok
        assert np.isnan(report.hit_times[0])

    def test_member_start_hits_at_zero(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        plan = SamplePlan(points=[SamplePoint(q=np.array([0.0, 1.0]))], time_budget=5.0)
        report = verify_C1(spec, tandem_point_set(), 1.0, plan)
        assert report.hit_times[0] == 0.0
        assert np.isnan(report.ratios[0])  # no ratio for on-set starts

    @pytest.mark.parametrize("hit_tol", [-1e-6, math.nan, math.inf])
    def test_hit_tol_not_nonnegative_and_finite_rejected(self, hit_tol):
        # a negative or nan tolerance used to report every start as not
        # absorbed within the budget
        spec = tandem_spec(1.0, 0.8, 0.5)
        plan = SamplePlan(points=[SamplePoint(q=np.array([0.0, 1.0]))], time_budget=5.0)
        with pytest.raises(ValueError, match="^hit_tol must be nonnegative and finite"):
            verify_C1(spec, tandem_point_set(), 1.0, replace(plan, hit_tol=hit_tol))
        assert verify_C1(spec, tandem_point_set(), 1.0, replace(plan, hit_tol=0.0)).hit_times[0] == 0.0

    def test_plan_without_points_rejected(self):
        # used to report no samples, max_ratio 0.0 and ok
        spec = tandem_spec(1.0, 0.8, 0.5)
        with pytest.raises(ValueError, match="^the sample plan has no points$"):
            verify_C1(spec, tandem_point_set(), 1.0, SamplePlan(points=[], time_budget=5.0))

    def test_report_serializes(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        plan = SamplePlan(points=[SamplePoint(q=np.array([2.0, 0.0]))], time_budget=30.0)
        d = verify_C1(spec, tandem_point_set(), 1.0, plan).to_dict()
        assert set(d) >= {"ratios", "hit_times", "max_ratio", "ok"}


@pytest.mark.parametrize(
    "spec, eqset, shape",
    [(tandem_spec(1.0, 0.8, 0.5), switch_equilibrium_set(0.5), "(8, 3), the network (2, 1)"),
     (switch_example_spec(), tandem_point_set(), "(2, 1), the network (8, 3)")],
    ids=["switch_set_on_tandem", "tandem_set_on_switch"],
)
def test_set_must_fit_the_network(spec, eqset, shape):
    # C1 used to end in an IndexError (switch set) or to report a violation
    # measured on classes 0-1 (tandem set), and C2 in a message about q and v
    message = rf"^the set has \(classes, flows\) = {re.escape(shape)}$"
    plan = SamplePlan(points=[SamplePoint(q=np.zeros(spec.num_classes))], time_budget=5.0)
    with pytest.raises(ValueError, match=message):
        verify_C1(spec, eqset, 1.0, plan)
    with pytest.raises(ValueError, match=message):
        verify_C2(spec, eqset, 1.0, [0.5] * spec.num_flows)


def test_set_without_pieces_rejected():
    # verify_C2 used to report ok with no rates, and verify_C1 and
    # distance to fail in min() of an empty sequence
    with pytest.raises(ValueError, match="^an equilibrium set needs at least one piece$"):
        EquilibriumSet(2, 1, ())


class TestVerifyC2:
    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_hbar_not_positive_and_finite_rejected(self, hbar):
        # 0 and -1 used to fail a weaker check of verify_C2's own, with another
        # message, and inf to reach initial's check after a numpy warning
        spec = tandem_spec(1.0, 0.8, 0.5)
        with pytest.raises(ValueError, match="^hbar must be positive and finite$"):
            verify_C2(spec, tandem_point_set(), hbar, [0.5])

    def test_switch_rates_exact(self):
        spec = switch_example_spec()
        report = verify_C2(spec, switch_equilibrium_set(0.5), 1.0, [0.5, 0.5, 0.5])
        assert report.max_deviation == 0.0

    def test_tandem_point_rate(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        report = verify_C2(spec, tandem_point_set(), 1.0, [0.5])
        assert report.max_deviation <= 1e-12

    def test_wrong_target_measured(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        report = verify_C2(spec, tandem_point_set(), 1.0, [0.3])
        assert report.max_deviation == pytest.approx(0.2, abs=1e-12)

    def test_scaled_threshold(self):
        spec = switch_example_spec()
        report = verify_C2(spec, switch_equilibrium_set(0.5), 25.0, [0.5, 0.5, 0.5])
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("per_piece, seed", [(-3, 0), (12, -1)])
    def test_negative_per_piece_or_seed_rejected(self, per_piece, seed):
        # per_piece -3 used to check the piece centroids alone and pass
        spec = tandem_spec(1.0, 0.8, 0.5)
        with pytest.raises(ValueError, match="per_piece and seed must be nonnegative"):
            verify_C2(spec, tandem_point_set(), 1.0, [0.5], per_piece=per_piece, seed=seed)

    def test_wrong_length_target_rejected(self):
        # a two-entry target on the one-flow tandem would broadcast
        spec = tandem_spec(1.0, 0.8, 0.5)
        with pytest.raises(ValueError, match=r"^expected one target rate per flow \(1\), not 2$"):
            verify_C2(spec, tandem_point_set(), 1.0, [0.5, 0.5])


class TestProjection:
    def test_projected_set_ignores_other_coordinates(self):
        eq = switch_equilibrium_set(0.5)
        proj = eq.projected((SWITCH.flow2_ingress, SWITCH.flow2_egress))
        st = switch_state(0.5, 1.0, q1=0.2)  # first flow's queue far off
        assert distance(st, eq) == pytest.approx(0.8)
        assert distance(st, proj) == 0.0

    def test_projection_keeps_scale_law(self):
        proj = switch_equilibrium_set(0.5).projected(
            (SWITCH.flow2_ingress, SWITCH.flow2_egress)
        )
        st = switch_state(2.0, 2.0, hbar=3.0)
        unit = switch_state(2.0 / 3.0, 2.0 / 3.0, hbar=1.0)
        assert distance(st, proj) == pytest.approx(
            3.0 * distance(unit, proj), rel=1e-12
        )

    def test_cannot_split_polygon(self):
        eq = switch_equilibrium_set(0.5)
        with pytest.raises(ValueError):
            eq.projected((SWITCH.flow2_ingress,))


def reference_hit(traj, eqset, hbar, tol, grid=401, extra=()):
    """Brute-force first hit: per segment and piece, the first of a grid of
    fractions with distance <= tol, then bisection down to adjacent floats
    between it and the grid point before it."""
    def dist(i, frac, piece):  # the distance _first_hit measures
        q = traj.q[i] + frac * (traj.q[i + 1] - traj.q[i])
        d = piece.q_distance(q / hbar) * hbar
        if eqset.constrain_residuals:
            u = traj.u[i] + frac * (traj.u[i + 1] - traj.u[i])
            v = traj.v[i] + frac * (traj.v[i + 1] - traj.v[i])
            for x in u.tolist() + v.tolist():  # left to right, as distance sums
                d += x
        return d

    if distance(FluidState(traj.q[0], traj.u[0], traj.v[0], hbar), eqset) <= tol:
        return float(traj.times[0])
    fracs = sorted(set([n / (grid - 1) for n in range(grid)] + list(extra)))
    for i in range(len(traj.times) - 1):
        t0, t1 = traj.times[i], traj.times[i + 1]
        if t1 <= t0:
            continue
        hits = []
        for piece in eqset.pieces:
            n = next((n for n, f in enumerate(fracs) if dist(i, f, piece) <= tol), None)
            if n is None:
                continue
            hi = fracs[n]
            if n > 0:
                lo = fracs[n - 1]
                while lo < 0.5 * (lo + hi) < hi:
                    mid = 0.5 * (lo + hi)
                    if dist(i, mid, piece) <= tol:
                        hi = mid
                    else:
                        lo = mid
            hits.append(float(t0 + hi * (t1 - t0)))
        if hits:
            return min(hits)
    return None


def single_pieces(eqset):
    return [
        EquilibriumSet(eqset.num_classes, eqset.num_flows, (p,), eqset.constrain_residuals)
        for p in eqset.pieces
    ]


_PAIR = (SWITCH.flow2_ingress, SWITCH.flow2_egress)
HIT_SETS = [
    switch_equilibrium_set(0.5), switch_tilde_set(),
    switch_equilibrium_set(0.3).projected(_PAIR), switch_tilde_set().projected(_PAIR),
    tandem_point_set(), tandem_tilde_set(), tandem_wedge_set(0.5),
    tandem_tilde_set().projected((1,)),
]


@st.composite
def segments_on_sets(draw):
    """A set of HIT_SETS, a segment between two queue vectors near it, a
    threshold and a fraction along the segment."""
    eqset = draw(st.sampled_from(HIT_SETS))
    hbar = draw(st.sampled_from([1.0, 0.37, 25.0]))
    coord = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(-0.5, 3.0)
    ends = [[hbar * draw(coord) for _ in range(eqset.num_classes)] for _ in range(2)]
    return eqset, hbar, ends, draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(segments_on_sets())
def test_hit_search_rows_measure_the_full_row(case):
    # _first_hit interpolates each piece's row on just the coordinates the
    # piece reads, each by the expression of the full row: the distance and
    # the kinks equal those of the full unit row bit for bit
    eqset, hbar, (base, end), f = case
    step = [b - a for a, b in zip(base, end)]
    x0, dx = [a / hbar for a in base], [s / hbar for s in step]
    for piece in eqset.pieces:
        coords, unit = piece._compact
        full = piece.q_distance([(a + f * s) / hbar for a, s in zip(base, step)])
        part = unit.q_distance([(base[k] + f * (end[k] - base[k])) / hbar for k in coords])
        assert part.hex() == full.hex()
        assert _kinks(unit, [x0[k] for k in coords], [dx[k] for k in coords]) == _kinks(piece, x0, dx)


def unpruned_hit(traj, eqset, tol):
    """_first_hit without its pruning: every piece is searched on every
    segment."""
    rows = traj.rows
    for (t0, q0, u0, v0, *_), (t1, q1, u1, v1, *_) in zip(rows, rows[1:]):
        if t1 <= t0:
            continue
        r0, r1 = (u0 + v0, u1 + v1) if eqset.constrain_residuals else ((), ())
        hits = [
            t0 + f * (t1 - t0)
            for f in (_piece_hit(p, traj.hbar, tol, q0, q1, r0, r1) for p in eqset.pieces)
            if f is not None
        ]
        if hits:
            return min(hits)
    return None


def trajectory_of(hbar, times, qs, us, vs):
    """A trajectory of the given breakpoint times and states; the hit
    search reads no rates or steps, so those are left None."""
    return FluidTrajectory(hbar, tuple((t, q, u, v, None, None) for t, q, u, v in zip(times, qs, us, vs)))


@st.composite
def trajectories_near_and_far(draw):
    """A set of HIT_SETS, a threshold, a tolerance and a trajectory of one
    or two segments.  Each breakpoint starts from a point of a piece (its
    centroid, with a polygon pair on a vertex), times hbar.  Some of its
    coordinates then move to a level of the bundled sets, near the set or
    up to 1e6 hbar away, and one may move by tol and a few ulps, just
    inside or outside the set's tol level set.  A breakpoint may repeat
    the one before it.  The residuals are mostly 0."""
    eqset = draw(st.sampled_from(HIT_SETS))
    hbar = draw(st.sampled_from([1e-3, 1.0, 1e3, 0.37, 25.0]))
    tol = hbar * draw(st.sampled_from([0.0, 1e-6, 1e-3]))
    K, F = eqset.num_classes, eqset.num_flows
    coord = st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(-0.5, 3.0) | st.floats(-1e6, 1e6)
    residual = st.just(0.0) | st.floats(0.0, 2.0)
    times = draw(st.sampled_from([[0.0, 1.0], [0.0, 1.0, 2.5], [0.0, 1.0, 1.0, 3.0]]))
    qs, us, vs = [], [], []
    for _ in times:
        if qs and draw(st.booleans()):
            # a segment that holds its state, as a stationary one does
            qs.append(qs[-1])
            us.append(us[-1])
            vs.append(vs[-1])
            continue
        piece = draw(st.sampled_from(eqset.pieces))
        x = piece.centroid_q(K).tolist()
        if piece.poly_coords is not None:
            for k, c in zip(piece.poly_coords, draw(st.sampled_from(piece.poly_vertices))):
                x[k] = c
        for k in draw(st.lists(st.integers(0, K - 1), max_size=K)):
            x[k] = draw(coord)
        x = [hbar * c for c in x]
        if draw(st.booleans()):
            k = draw(st.integers(0, K - 1))
            x[k] += draw(st.sampled_from([tol, -tol]))
            for _ in range(draw(st.integers(0, 3))):
                x[k] = math.nextafter(x[k], draw(st.sampled_from([-math.inf, math.inf])))
        qs.append(x)
        us.append([draw(residual) for _ in range(F)])
        vs.append([draw(residual) for _ in range(K)])
    return eqset, tol, trajectory_of(hbar, times, qs, us, vs)


@settings(max_examples=300, deadline=None)
@given(trajectories_near_and_far())
def test_pruned_hit_search_equals_the_full_search(case):
    # a piece out of reach of a segment is skipped, and it never held the
    # first hit: the search gives the time of the search over every piece
    eqset, tol, traj = case
    assert _first_hit(traj, eqset, tol) == unpruned_hit(traj, eqset, tol)


_ORIGIN = EquilibriumSet(2, 1, (Piece(((0, 0.0, 0.0), (1, 0.0, 0.0))),))


@pytest.mark.parametrize("eqset", HIT_SETS + [_ORIGIN], ids=range(len(HIT_SETS) + 1))
def test_pruning_keeps_hits_that_rounding_reaches(eqset):
    # a held point tol plus a few ulps outside a face of a piece's box can
    # measure <= tol once rounded, also where its unit coordinates
    # underflow: the pruning's slack must keep that piece in reach
    K, nudges = eqset.num_classes, range(-4, 5)
    for piece, hbar, tol_unit in itertools.product(eqset.pieces, [1e-3, 1.0, 1e3, 25.0, 7.1], [0.0, 1e-6, 1e-3]):
        tol = tol_unit * hbar
        point = piece.centroid_q(K).tolist()
        faces = [(k, lo, hi) for k, lo, hi in piece.bounds]
        if piece.poly_coords is not None:
            vertex = piece.poly_vertices[0]
            point[piece.poly_coords[0]], point[piece.poly_coords[1]] = vertex
            faces += [(k, c, c) for k, c in zip(piece.poly_coords, vertex)]
        for (k, lo, hi), (level, side), n in itertools.product(faces, [(0, -1.0), (1, 1.0)], nudges):
            q = [hbar * x for x in point]
            q[k] = hbar * (lo, hi)[level] + side * tol
            for _ in range(abs(n)):
                q[k] = math.nextafter(q[k], math.copysign(math.inf, n))
            traj = trajectory_of(hbar, [0.0, 1.0], [q, q], [[0.0] * eqset.num_flows] * 2, [[0.0] * K] * 2)
            assert _first_hit(traj, eqset, tol) == unpruned_hit(traj, eqset, tol)


def test_pruning_slack_covers_the_box_magnitude():
    # tol is the distance measured from a point near 0 to a point set 1e6
    # hbar away, where the gap of the boxes can round a few ulps of 1e6
    # hbar above it: only a slack scaled by the box's magnitude covers it
    far = EquilibriumSet(2, 1, (Piece(((0, 1e6, 1e6), (1, 0.0, 0.0))),), constrain_residuals=False)
    hbar = 0.37
    for n in range(1, 30):
        q = [0.1 * n * hbar, 0.0]
        tol = distance(FluidState(np.array(q), np.zeros(1), np.zeros(2), hbar), far)
        traj = trajectory_of(hbar, [0.0, 1.0], [q, q], [[0.0]] * 2, [[0.0, 0.0]] * 2)
        assert _first_hit(traj, far, tol) == unpruned_hit(traj, far, tol) == 0.0


def test_hit_search_skips_pieces_out_of_reach(monkeypatch):
    # a segment far from every piece searches none; one through the band
    # searches the band alone, as it stays 1 hbar left of the edge piece
    from qnet import absorption

    searched = []

    def counted(piece, *args):
        searched.append(piece)
        return piece_hit(piece, *args)

    piece_hit = absorption._piece_hit
    monkeypatch.setattr(absorption, "_piece_hit", counted)
    proj = switch_equilibrium_set(0.5).projected(_PAIR)
    K = proj.num_classes

    def row(x, y):
        q = [0.0] * K
        q[_PAIR[0]], q[_PAIR[1]] = x, y
        return q

    far = trajectory_of(2.0, [0.0, 1.0], [row(5.0, 0.0), row(4.0, 6.0)], [[]] * 2, [[]] * 2)
    assert _first_hit(far, proj, 1e-6) is None and searched == []
    near = trajectory_of(2.0, [0.0, 1.0], [row(0.2, 4.0), row(1.0, 2.0)], [[]] * 2, [[]] * 2)
    hit = _first_hit(near, proj, 1e-6)
    assert hit == pytest.approx(0.6875, abs=1e-6)  # where y = 1.5 - x/2 in unit coordinates
    assert searched == [proj.pieces[0]]
    assert unpruned_hit(near, proj, 1e-6) == hit


class TestFirstHit:
    def test_switch_band_and_edge_pieces(self):
        spec = switch_example_spec()
        full = switch_equilibrium_set(0.5)
        proj = full.projected((SWITCH.flow2_ingress, SWITCH.flow2_egress))
        hit_pieces = set()
        for q2, q7 in [(0.4, 0.7), (2.5, 0.3), (1.6, 0.6), (0.02, 2.9), (2.9, 2.9), (0.0, 1.8)]:
            traj = integrate(switch_state(q2, q7), spec, 120.0)
            for eqset in (proj, full):
                want = reference_hit(traj, eqset, 1.0, 1e-6)
                assert want is not None
                assert _first_hit(traj, eqset, 1e-6) == want
            for n, piece_set in enumerate(single_pieces(proj)):
                piece_hit = reference_hit(traj, piece_set, 1.0, 1e-6)
                assert _first_hit(traj, piece_set, 1e-6) == piece_hit
                if piece_hit == reference_hit(traj, proj, 1.0, 1e-6):
                    hit_pieces.add(n)
        assert hit_pieces == {0, 1}  # both the band and the edge piece are hit first

    def test_tandem_tilde_set_segment(self):
        spec = tandem_spec(1.0, 0.5, 0.5)
        for q in ([1.0, 1.1], [0.3, 2.0], [2.5, 0.4]):
            traj = integrate(FluidState.initial(spec, q, 1.0), spec, 50.0)
            want = reference_hit(traj, tandem_tilde_set(), 1.0, 1e-6)
            assert want is not None and want > 0.0
            assert _first_hit(traj, tandem_tilde_set(), 1e-6) == want

    def test_segment_touching_the_tol_level_set_at_one_point(self):
        # the vertical segment x = tol passes the point (0, 1) at distance
        # exactly tol at its midpoint and farther everywhere else
        tol = 1e-6
        traj = trajectory_of(1.0, [0.0, 2.0], [[tol, 1.5], [tol, 0.5]], [[0.0]] * 2, [[0.0, 0.0]] * 2)
        want = reference_hit(traj, tandem_point_set(), 1.0, tol, extra=(0.5,))
        assert want == pytest.approx(1.0, abs=1e-15)  # y rounds to 1 a few ulps early
        assert _first_hit(traj, tandem_point_set(), tol) == want
        # a hair above that distance, the segment misses the set
        assert _first_hit(traj, tandem_point_set(), tol * (1 - 1e-9)) is None

    def test_residual_start_on_a_full_set(self):
        # the residual clock and gates of a full set add to the distance
        # until they run out; no other test starts the hit search with them
        spec = tandem_spec(1.0, 0.8, 0.5)
        eqset = tandem_point_set()
        start = FluidState.initial(spec, [0.7, 2.4], 1.0, u=[0.3], v=[0.1, 0.3])
        traj = integrate(start, spec, 60.0)
        want = reference_hit(traj, eqset, 1.0, 1e-6)
        assert want is not None and want > 0.3
        assert _first_hit(traj, eqset, 1e-6) == want
        plan = SamplePlan(points=[SamplePoint(q=start.q, u=start.u, v=start.v)], time_budget=60.0)
        report = verify_C1(spec, eqset, 1.0, plan)
        d0 = distance(start, eqset)
        assert report.initial_distances.tolist() == [d0]
        assert report.hit_times.tolist() == [want]
        # at f = 0 the search measures the start exactly as distance does;
        # numpy's pairwise order sums these residuals to 2.8, one ulp above d0
        assert _first_hit(traj, eqset, d0) == 0.0
        assert _first_hit(traj, eqset, math.nextafter(d0, 0.0)) > 0.0

    def test_start_inside_the_set(self):
        spec = tandem_spec(1.0, 0.8, 0.5)
        traj = integrate(FluidState.initial(spec, [0.0, 1.0], 1.0), spec, 5.0)
        assert _first_hit(traj, tandem_point_set(), 1e-6) == 0.0
        traj = integrate(switch_state(0.5, 1.0), switch_example_spec(), 20.0)
        assert _first_hit(traj, switch_equilibrium_set(0.5), 1e-6) == 0.0
