"""Fluid counterpart of the discarding network: piecewise-constant rates
and an event-driven piecewise-linear integrator.

Within a region of state space -- a fixed pattern of empty / interior /
at-threshold / above-threshold queues along with which arrival clocks and
service gates are active -- every admission, service and departure rate is
constant, so trajectories are piecewise linear and can be integrated
exactly from boundary event to boundary event.

Boundary states are resolved deterministically:

* a queue sitting exactly at the threshold pins there ("sliding") with the
  flow's admission rate chosen as the largest value in [0, alpha_f] that
  keeps the binding queue's derivative nonpositive; if even zero admission
  cannot hold it, the queue escapes upward and the flow admits nothing;
* an empty queue whose input is below its fair share departs at exactly
  its input rate and stays empty, with the surplus capacity redistributed
  among the station's other queues (iterative water-filling).

Both are solved exactly.  For fixed admissions the service allocation is
a fixed point that ``_allocate`` reaches by sweeping the stations
upstream first (``NetworkSpec.sweep``), in one sweep when the station
feed graph is acyclic (``NetworkSpec.acyclic``).  The sliding admission is
the last zero of a continuous, nondecreasing, piecewise-linear residual.
Each allocation also returns the slope of the residual's current linear
piece and the station sets that certify where that piece holds, so
``_last_zero`` takes the zero of a piece and accepts it once the
certificate holds there.  ``solve_rates`` runs Gauss-Seidel passes over
the sliding flows and solves a flow's root again only after another
flow's admission moved, as the root reads only the others' admissions.
The water-filling reads the spec's float tables ``w``, ``mu`` and
``w_mu``.

As the rates are constant within a region, ``solve_rates`` solves each
region once per spec and answers every later state of the region with
the same ``RateVector``, found in the spec's ``_rates_memo`` by a key of
C-level passes over the state.  Its rates are tuples of floats, the form
``integrate`` computes on.  On the switch member states a miss takes
4.05 roots and 9.05 allocations on average, about 180 us on two shared
cores.  ``integrate`` runs its breakpoint loop on lists of floats; numpy
only builds the state handed to ``solve_rates``.  It appends one row per
breakpoint, ``(t, q, u, v, rates, step)``, and one for a stationary
state's hold to the horizon; once every arrival clock and service gate
has run out it no longer scans or snaps u and v.  A ``FluidTrajectory``
is its rows: its ``__getattr__`` builds any column from them on the
column's first read and keeps it in the instance, so ``verify_C1``, whose
hit search reads t, q, u and v, builds none.  A C1 start on the switch
(4.9 rows) takes about 39 us here.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .network import NetworkSpec

__all__ = [
    "FluidState",
    "RateVector",
    "FluidTrajectory",
    "TRAJECTORY_COLUMNS",
    "FluidRateError",
    "ZenoError",
    "solve_rates",
    "integrate",
    "departure_rates_at",
]

_RATE_EPS = 1e-9      # rates smaller than this are treated as zero drift
_ROOT_TOL = 1e-13     # residual that counts as zero, and tie allowed by a piece certificate
_ROOT_STEPS = 200     # evaluations allowed per sliding admission root
_FILL_TOL = 1e-14     # departure change that ends the service-allocation sweeps
_ZENO_WINDOW = 64     # breakpoints that must not fall within a vanishing span
_MAX_BREAKPOINTS = 20000  # breakpoints one integrate call may record


def _classify(q: list, hbar: float) -> tuple:
    """Boundary tolerance at threshold ``hbar`` and the boolean masks (lists)
    of the queues in ``q``, a list of floats, that are empty, at the
    threshold and above it; every other queue is interior.  The tolerance
    also decides whether a residual clock or gate is still running."""
    atol = 1e-10 * max(1.0, hbar)
    lo, hi = hbar - atol, hbar + atol
    empty = [x <= atol for x in q]
    above = [x >= hi for x in q]
    at_thr = [x >= lo and not a for x, a in zip(q, above)]
    return atol, empty, at_thr, above


class FluidRateError(RuntimeError):
    """The rate fixed point (water-filling or sliding admits) did not settle."""


class ZenoError(RuntimeError):
    """Breakpoints accumulated in a vanishing time span."""


@dataclass
class FluidState:
    q: np.ndarray          # per-class fluid queue contents, >= 0
    u: np.ndarray          # per-flow residual until arrivals activate
    v: np.ndarray          # per-class residual initial service gate
    hbar: float            # common discarding threshold, > 0

    @classmethod
    def initial(cls, spec: NetworkSpec, q, hbar: float, u=None, v=None) -> "FluidState":
        q = np.array(q, dtype=float)
        u = np.zeros(spec.num_flows) if u is None else np.array(u, dtype=float)
        v = np.zeros(spec.num_classes) if v is None else np.array(v, dtype=float)
        if (q.shape, u.shape, v.shape) != ((spec.num_classes,), (spec.num_flows,), (spec.num_classes,)):
            raise ValueError("q and v must have one entry per class, u one per flow")
        if not 0 < hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        # checked on lists: a numpy reduction per array costs more at these sizes
        qs, vs = q.tolist(), v.tolist()
        if not all(0.0 <= x < np.inf for x in qs + u.tolist() + vs):  # nan fails too
            raise ValueError("fluid coordinates must be nonnegative and finite")
        if any(qs[k] or vs[k] for k in spec.idle_slots):
            raise ValueError(f"q and v must be 0 at the idle slots {sorted(spec.idle_slots)}")
        return cls(q=q, u=u, v=v, hbar=float(hbar))


@dataclass(frozen=True)
class RateVector:
    """The rates of one regime, as tuples of floats: ``solve_rates``
    returns the same object for every state of the regime.  ``moving``
    holds the classes whose ``q_dot`` is not 0.  Two RateVectors are equal
    when their rates are, so a copied trajectory equals its original."""
    admit: tuple        # per flow, in [0, alpha_f]
    depart: tuple       # per class
    busy: tuple         # per class, server time fraction in [0, 1]
    idle: tuple         # per station, 1 - sum of busy fractions
    arrival: tuple      # per class inflow: routed departures + admissions
    q_dot: tuple        # per class, arrival - depart, 0 below _RATE_EPS
    flow_depart: tuple  # per flow, the departures of its egress class
    moving: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "moving", tuple(k for k, r in enumerate(self.q_dot) if r))


# ---------------------------------------------------------------------------
# service allocation (weighted water-filling across each station)


def _fill_station(w, mu, w_mu, ks, backlogged, gate_open, inflow, dinflow, rate, drate, busy):
    """Water-fill one station: writes its classes' departure rates to
    ``rate``, their slopes to ``drate`` and their busy fractions; returns
    the largest change to a departure rate and the station's sets
    ``(gated, open_, limited, rest, clamped)``.

    A class with a pending residual service (``gated``) holds the single
    non-preemptive server at full rate, emitting no departures and
    blocking the station's other classes.  Otherwise the backlogged
    classes and those with inflow (``open_``) share capacity in weight
    proportion, an empty queue whose input is below its share
    (``limited``) is served at its input, the others (``rest``) at the
    share, and ``clamped`` tells that the share hit 0.  With the sets
    fixed the departures are affine in the inflows, so the slopes
    ``dinflow`` map to ``drate`` the same way.  ``w``, ``mu`` and ``w_mu``
    are the spec's per-class float tables; ``limited`` and ``rest`` keep
    the order of ``ks``, so every sum runs in station order.  A sliding
    solve on the switch calls this once per fed station per allocation,
    about 36 times.
    """
    gated = None
    for k in ks:
        if not gate_open[k]:
            gated = k
            break
    open_ = [] if gated is not None else [k for k in ks if backlogged[k] or inflow[k] > 0.0]
    limited = []
    rest = open_
    share = dshare = 0.0
    clamped = False
    while rest:
        denom = used = dused = 0.0
        for k in rest:
            denom += w_mu[k]
        for k in limited:
            used += inflow[k] / mu[k]
            dused += dinflow[k] / mu[k]
        share = (1.0 - used) / denom
        clamped = share < 0.0
        share, dshare = (0.0, 0.0) if clamped else (share, -dused / denom)
        movers = [k for k in rest if not backlogged[k] and inflow[k] < w[k] * share - 1e-15]
        if not movers:
            break
        rest = [k for k in rest if k not in movers]
        limited = [k for k in open_ if k not in rest]
    else:
        share = dshare = 0.0  # every open class is limited, or none is open
    moved = 0.0
    for k in ks:
        if k in rest:
            d, dd = w[k] * share, w[k] * dshare
        elif k in limited:
            d, dd = inflow[k], dinflow[k]
        else:
            d = dd = 0.0
        change = abs(d - rate[k])
        if change > moved:
            moved = change
        rate[k], drate[k] = d, dd
        busy[k] = 1.0 if k == gated else d / mu[k]
    return moved, (gated, open_, limited, rest, clamped)


def _allocate(spec, admit, backlogged, gate_open, f=-1):
    """Departure, busy and inflow rates (lists over classes) for fixed
    admissions: the fixed point of inflow propagation and per-station
    water-filling.  Also returns d(depart)/d(admit_f) and
    d(inflow)/d(admit_f) on the current linear piece (zero for f = -1) and
    the per-station sets of ``_fill_station``, which certify the piece.

    Gauss-Seidel sweeps visit the stations in ``spec.sweep`` order, each
    reading its classes' inflows from ``spec.feeder`` as the sweep has
    left them.  On an acyclic station feed graph (``spec.acyclic``) that
    order is topological, so one sweep is exact; a cyclic graph repeats
    sweeps until one moves no departure by more than ``_FILL_TOL``, and
    raises FluidRateError if none settles within the round guard.
    """
    K = spec.num_classes
    w, mu, w_mu = spec.w, spec.mu, spec.w_mu
    feeder, fed, sweep = spec.feeder, spec.fed, spec.sweep
    rate = [0.0] * K + list(admit)   # class departures, then admissions
    drate = [0.0] * len(rate)
    if f >= 0:
        drate[K + f] = 1.0
    inflow, dinflow, busy = [0.0] * K, [0.0] * K, [0.0] * K
    sets = [None] * spec.num_stations
    for _ in range(4 * K + 16):
        moved = 0.0
        for i in sweep:
            ks = fed[i]
            for k in ks:
                inflow[k], dinflow[k] = rate[feeder[k]], drate[feeder[k]]
            change, sets[i] = _fill_station(
                w, mu, w_mu, ks, backlogged, gate_open, inflow, dinflow, rate, drate, busy
            )
            if change > moved:
                moved = change
        if spec.acyclic or moved <= _FILL_TOL:
            return rate[:K], busy, inflow, drate[:K], dinflow, sets
    raise FluidRateError("service water-filling did not converge")


# ---------------------------------------------------------------------------
# sliding admission rates


def _pinned_residual(spec, admit, backlogged, gate_open, pinned, f=-1):
    """max over pinned classes of (inflow - depart), which must be <= 0 to
    hold every pinned queue at its threshold, its slope in admit_f, and
    its piece: the station sets, the binding class's index in ``pinned``,
    the class inflows and the pinned residuals."""
    depart, _busy, inflow, ddepart, dinflow, sets = _allocate(
        spec, admit, backlogged, gate_open, f
    )
    resid = [inflow[k] - depart[k] for k in pinned]
    j = resid.index(max(resid))
    k = pinned[j]
    return resid[j], dinflow[k] - ddepart[k], (sets, j, inflow, resid)


def _piece_holds(spec, backlogged, piece, other):
    """Whether the binding class and station sets of ``piece`` still
    satisfy the water-filling inequalities at the point where ``other``
    was evaluated, ties within ``_ROOT_TOL`` allowed.  Then both points
    lie on one linear piece of the pinned residual.  Each station's
    ``rest`` comes from ``_fill_station`` and its share denominator from
    the spec's ``w_mu``, summed in the same order; a sliding solve on
    the switch tests a certificate about four times."""
    (sets, j, _, _), (_, _, inflow, resid) = piece, other
    if resid[j] < max(resid) - _ROOT_TOL:
        return False
    w, mu, w_mu, fed = spec.w, spec.mu, spec.w_mu, spec.fed
    for i in spec.sweep:
        gated, open_, limited, rest, clamped = sets[i]
        if gated is not None:
            continue  # the gate does not depend on the admissions
        if len(open_) < len(fed[i]):
            for k in fed[i]:
                if inflow[k] > _ROOT_TOL and k not in open_:
                    return False
        used = 0.0
        for k in limited:
            used += inflow[k] / mu[k]
        if not rest:
            if used > 1.0 + _ROOT_TOL:
                return False
            continue
        denom = 0.0
        for k in rest:
            denom += w_mu[k]
        share = (1.0 - used) / denom
        if clamped != (share < 0.0) and abs(share) > _ROOT_TOL:
            return False
        share = max(share, 0.0)
        for k in limited:
            if inflow[k] > w[k] * share + _ROOT_TOL:
                return False
        for k in rest:
            if not backlogged[k] and inflow[k] < w[k] * share - _ROOT_TOL:
                return False
    return True


def _last_zero(g, top, at_top, holds):
    """Largest a in [0, top] with g(a) <= 0 (0 if there is none), for g
    continuous, nondecreasing and piecewise linear with g(top) > _ROOT_TOL.

    ``g(a)`` returns ``(value, slope, piece)``, the slope and certificate
    of the linear piece at a, and ``at_top = g(top)``; ``holds(piece,
    other)`` tells whether ``piece`` is still the linear piece at the point
    where ``other`` was evaluated.  The bracket [lo, hi] keeps g(lo) <=
    _ROOT_TOL < g(hi).  Each step evaluates g at the zero of hi's line: if
    that is a zero of g and hi's piece holds there, g rises linearly from
    it to hi, so it is the answer; otherwise it splits the bracket.  When
    hi's line has no zero inside the bracket, lo is the answer if hi's
    piece holds at lo, and otherwise the step goes to the zero of lo's
    line or the midpoint.  g(0) is evaluated only when a step needs it.
    Raises FluidRateError after ``_ROOT_STEPS`` evaluations.
    """
    lo, at_lo = 0.0, None
    hi, at_hi = top, at_top
    for _ in range(_ROOT_STEPS):
        g_hi, s_hi, p_hi = at_hi
        x = hi - g_hi / s_hi if s_hi > 0.0 else hi
        if not lo < x < hi:
            if at_lo is None:
                at_lo = g(lo)
                if at_lo[0] > _ROOT_TOL:
                    return lo  # not pinnable: the queue escapes upward
            g_lo, s_lo, p_lo = at_lo
            if x <= lo and g_lo >= -_ROOT_TOL and holds(p_hi, p_lo):
                return lo
            x = lo - g_lo / s_lo if s_lo > 0.0 else lo
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
                if not lo < x < hi:
                    return lo  # the bracket is down to adjacent floats
        at_x = g(x)
        if at_x[0] > _ROOT_TOL:
            hi, at_hi = x, at_x
        elif at_x[0] >= -_ROOT_TOL and holds(p_hi, at_x[2]):
            return x
        else:
            lo, at_lo = x, at_x
    raise FluidRateError("sliding admission root did not settle")


def _solve_admit_root(spec, admit, f, backlogged, gate_open, pinned):
    """Largest admission a in [0, alpha_f] for flow f that holds every
    pinned queue at its threshold, the other flows' admissions fixed.

    The pinned residual g(a) is continuous, nondecreasing and piecewise
    linear in a, and may be flat at zero over a range (a pinned queue fed
    from a backlogged upstream queue does not see the admission rate at
    all).  Full admission holds when g(alpha_f) <= _ROOT_TOL, none when
    g(0) > _ROOT_TOL (the queue escapes upward), and otherwise
    ``_last_zero`` takes the zero of a linear piece once the piece's
    station sets and binding class still hold there (``_piece_holds``).
    """
    trial = list(admit)

    def g(a):
        trial[f] = a
        return _pinned_residual(spec, trial, backlogged, gate_open, pinned, f)

    top = spec.alpha[f]
    at_top = g(top)
    if at_top[0] <= _ROOT_TOL:
        return top
    return _last_zero(g, top, at_top, partial(_piece_holds, spec, backlogged))


def solve_rates(state: FluidState, spec: NetworkSpec) -> RateVector:
    """Instantaneous rate vector of the fluid model at ``state``.

    Admission: a flow admits at its full arrival rate while every one of
    its queues is strictly below the threshold (and its arrival clock is
    active), admits nothing while any queue is strictly above, and on the
    threshold boundary receives the deterministic sliding rate described
    in the module docstring.  Service follows weighted water-filling with
    work conservation per station.

    The rates read the state only through its regime: the masks of the
    backlogged classes, the open service gates, the waiting arrival
    clocks and the queues above and at the threshold.  Each spec memoizes
    them in ``spec._rates_memo``, with no size limit, keyed by C-level
    passes over the state: which queues, gates and clocks exceed the
    tolerance, and each queue's level from one ``bisect_right`` over
    (hbar - atol, hbar + atol) (0 below, 1 at the threshold, 2 above).
    The key gives ``_classify``'s masks at every hbar, also where the
    empty and threshold bands overlap.  States of one regime can differ
    in the key only where a gate is closed, which makes its class
    backlogged whether its queue is empty or not, so a miss first looks
    up the regime's own key, with gated classes counted as nonempty, and
    solves only if that is missing too; the entry is stored under both
    keys, and every state of the regime gets its ``RateVector``.  A fault
    is raised again on every call and never stored.  A nan coordinate,
    which ``FluidState.initial`` rejects, keys as an empty queue above
    the threshold, or as a stopped clock or gate.  Raises ValueError
    unless ``state.hbar`` is positive and finite.
    """
    hbar = state.hbar
    if not 0.0 < hbar < np.inf:
        raise ValueError("hbar must be positive and finite")
    atol = 1e-10 * max(1.0, hbar)   # the tolerance of _classify
    running = atol.__lt__
    q = state.q.tolist()
    key = (
        tuple(map(running, q)),
        tuple(map(partial(bisect_right, (hbar - atol, hbar + atol)), q)),
        tuple(map(running, state.v.tolist())),
        tuple(map(running, state.u.tolist())),
    )
    memo = spec._rates_memo
    rv = memo.get(key)
    if rv is None:
        nonempty, levels, gated, waiting = key
        backlogged = tuple([n or g for n, g in zip(nonempty, gated)])
        regime = (backlogged, levels, gated, waiting)
        rv = memo.get(regime)
        if rv is None:
            rv = _solve_regime(
                spec, backlogged, tuple([not g for g in gated]), waiting,
                tuple([b == 2 for b in levels]), tuple([b == 1 for b in levels]),
            )
        memo[key] = memo[regime] = rv
    return rv


def _solve_regime(spec, backlogged, gate_open, waiting, above, at_thr) -> RateVector:
    """The rates of the regime whose masks, those of ``solve_rates``, are
    given as tuples of bools."""
    if not all(gate_open):
        for members in spec.fed:
            if sum(1 for k in members if not gate_open[k]) > 1:
                raise ValueError(
                    "at most one class per station may carry a residual service"
                )

    admit = [0.0] * spec.num_flows
    sliding = []
    for f, ks in enumerate(spec.routes):
        if waiting[f]:
            continue  # arrival clock not yet active
        if any(above[k] for k in ks):
            continue
        admit[f] = spec.alpha[f]
        pinned = [k for k in ks if at_thr[k]]
        if pinned:
            sliding.append((f, pinned))

    if sliding:
        # Gauss-Seidel passes over the sliding flows.  A flow's root reads
        # only the other flows' admissions, so it is solved again only once
        # one of them has moved: a skipped solve would return its current
        # admission and add 0 to ``moved``.
        stale = [True] * len(sliding)
        for _pass in range(2 * len(sliding) + 6):
            moved = 0.0
            for j, (f, pinned) in enumerate(sliding):
                if not stale[j]:
                    continue
                stale[j] = False
                new = _solve_admit_root(spec, admit, f, backlogged, gate_open, pinned)
                if new != admit[f]:
                    moved = max(moved, abs(new - admit[f]))
                    stale = [i != j for i in range(len(sliding))]
                admit[f] = new
            if moved <= 1e-12:
                break
        else:
            raise FluidRateError("sliding admission rates did not stabilize")

    depart, busy, inflow = _allocate(spec, admit, backlogged, gate_open)[:3]
    idle = []
    for members in spec.fed:
        used = 0.0  # left to right: builtin sum rounds differently on 3.12+
        for k in members:
            used += busy[k]
        x = 1.0 - used
        idle.append(0.0 if abs(x) < 1e-12 else x)
    if any(x < 0.0 for x in idle):
        raise FluidRateError("station busy fractions exceed capacity")
    q_dot = tuple([0.0 if abs(x := a - d) < _RATE_EPS else x for a, d in zip(inflow, depart)])
    return RateVector(
        tuple(admit), tuple(depart), tuple(busy), tuple(idle), tuple(inflow), q_dot,
        tuple([depart[k] for k in spec.egress]),
    )


def departure_rates_at(state: FluidState, spec: NetworkSpec) -> tuple:
    """Per-flow departure rates: those of the egress classes, the regime's
    ``flow_depart``."""
    return solve_rates(state, spec).flow_depart


# ---------------------------------------------------------------------------
# trajectory integration


TRAJECTORY_COLUMNS = (
    "times", "q", "u", "v", "admit", "depart", "busy", "idle",
    "cum_arrival", "cum_depart", "cum_admit",
)


def _accrued(rows: tuple, field: str) -> list:
    """The flows accrued at the rates ``field`` of each row's RateVector:
    0 at the first row, then the previous row's plus its rates times its
    step, left to right as ``integrate`` advances."""
    c = [0.0] * len(getattr(rows[0][4], field))
    out = [c]
    for row in rows[:-1]:
        c = [x + r * row[5] for x, r in zip(c, getattr(row[4], field))]
        out.append(c)
    return out


@dataclass(frozen=True)
class FluidTrajectory:
    """Piecewise-linear fluid path with its breakpoints.

    Row i of ``rows`` is ``(t, q, u, v, rates, step)``: breakpoint i's
    time, its state (lists of floats; rows may share u and v), the
    ``RateVector`` that ``solve_rates`` returned there, constant on the
    segment starting there, and that segment's length (0.0 on the last
    row).  Each column of ``TRAJECTORY_COLUMNS`` is a read-only array,
    ``times`` of shape (rows,) and the others (rows, width), which
    ``__getattr__`` builds on its first read and stores in the instance's
    ``__dict__``, where later reads find it: t, q, u and v from the rows,
    admit, depart, busy and idle from the RateVectors, and the cumulative
    flows from 0 by adding each row's ``arrival``, ``depart`` or
    ``admit`` times its step, left to right.  A state between rows is
    ``state_at(t)``.  The hit search of ``verify_C1`` reads the rows and
    builds no column.  The rows are the record, and are not to be modified;
    a copy or a pickle carries them and no built column, and equals the
    original.
    ``absorbed_at`` is the first breakpoint at which the state was
    stationary with no pending clock or gate events (the trajectory then
    stays there for all later times).
    """

    hbar: float
    rows: tuple
    absorbed_at: Optional[float] = None

    def __getattr__(self, name):
        # reached only for a name the instance does not hold: a column not
        # read yet, or anything else (copy and pickle probes), which must
        # fail before it reads self.rows
        if name not in TRAJECTORY_COLUMNS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rows, n = self.rows, TRAJECTORY_COLUMNS.index(name)
        if n < 4:   # times, q, u or v
            entries = [row[n] for row in rows]
        elif name.startswith("cum_"):   # the flows accrued at a RateVector field
            entries = _accrued(rows, name.removeprefix("cum_"))
        else:       # a RateVector field
            entries = [getattr(row[4], name) for row in rows]
        column = np.array(entries, dtype=float)
        column.flags.writeable = False
        self.__dict__[name] = column
        return column

    def __getstate__(self):
        # the built columns stay behind, so a copy or an unpickled trajectory
        # builds its own, read-only, from the rows
        return {k: v for k, v in self.__dict__.items() if k not in TRAJECTORY_COLUMNS}

    @property
    def horizon(self) -> float:
        return float(self.rows[-1][0])

    def state_at(self, t: float) -> FluidState:
        if not 0.0 <= t <= self.horizon + 1e-12:
            raise ValueError("t outside the integrated horizon")
        if len(self.rows) == 1 or t >= self.horizon:
            i = len(self.rows) - 1
            return FluidState(self.q[i].copy(), self.u[i].copy(), self.v[i].copy(), self.hbar)
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        i = min(max(i, 0), len(self.rows) - 2)
        dt = t - self.times[i]
        span = self.times[i + 1] - self.times[i]
        frac = 0.0 if span == 0 else dt / span
        q = self.q[i] + frac * (self.q[i + 1] - self.q[i])
        u = self.u[i] + frac * (self.u[i + 1] - self.u[i])
        v = self.v[i] + frac * (self.v[i + 1] - self.v[i])
        return FluidState(q, u, v, self.hbar)


def integrate(state0: FluidState, spec: NetworkSpec, horizon: float) -> FluidTrajectory:
    """Integrate the fluid model from ``state0`` for ``horizon`` time units.

    Within a regime the rates are constant, so the state is advanced
    linearly to the earliest boundary event: a queue reaching 0 or the
    threshold (from either side), an arrival clock running out, or a
    service gate opening.  Rates are re-solved at every breakpoint.  Once
    the state is stationary with no pending events it is absorbing and the
    trajectory is extended to the horizon in one segment.  Raises
    ValueError unless ``state0.hbar`` is positive and finite.
    """
    if not 0 <= horizon < np.inf:
        raise ValueError("horizon must be nonnegative and finite")
    hbar = state0.hbar
    if not 0.0 < hbar < np.inf:
        raise ValueError("hbar must be positive and finite")
    horizon = float(horizon)  # the time of the last row, whose entries are floats
    atol = 1e-10 * max(1.0, hbar)   # the tolerance of _classify
    lo, hi = hbar - atol, hbar + atol

    q, u, v = (np.asarray(x, dtype=float).tolist() for x in (state0.q, state0.u, state0.v))
    K = len(q)
    spent = False   # every arrival clock and service gate has run out

    rows = []   # (t, q, u, v, rates, step) per breakpoint
    absorbed_at = None

    t = 0.0
    while True:
        if not spent:
            uv = (np.array(u), np.array(v))
            waiting = [x for x in u if x > atol]
            gated = [k for k in range(K) if v[k] > atol]
        rv = solve_rates(FluidState(np.array(q), *uv, hbar), spec)
        qdot, busy = rv.q_dot, rv.busy

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
        candidates += waiting + [v[k] / busy[k] for k in gated if busy[k] > _RATE_EPS]

        stationary = not (rv.moving or waiting or gated)
        if stationary and absorbed_at is None:
            absorbed_at = t
        remaining = horizon - t
        if remaining <= 0:
            rows.append((t, q, u, v, rv, 0.0))
            break
        if stationary:
            # hold the state to the horizon in one segment
            rows.append((t, q, u, v, rv, remaining))
            rows.append((horizon, q, u, v, rv, 0.0))
            break
        candidates.append(remaining)
        dt = min(candidates)
        rows.append((t, q, u, v, rv, dt))

        # advance one segment; snap coordinates that landed on a boundary,
        # within the same tolerance that classifies them: a queue to 0 and
        # then to hbar, and u and v, which run down to 0, to 0 from below
        # the tolerance, negative or not
        q = [hbar if abs((y := 0.0 if abs(y := x + r * dt) < atol else y) - hbar) < atol else y
             for x, r in zip(q, qdot)]
        if not spent:
            u = [0.0 if (y := x - dt) < atol else y for x in u]
            v = [0.0 if (y := x - b * dt) < atol else y for x, b in zip(v, busy)]
            # once the snap leaves every entry at 0.0, the later rows share
            # these lists and the states handed to solve_rates their arrays
            spent = not (any(u) or any(v))
            if spent:
                uv, waiting, gated = (np.array(u), np.array(v)), [], []
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

    return FluidTrajectory(hbar, tuple(rows), absorbed_at)
