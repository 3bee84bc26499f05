"""Event-driven simulation of the stochastic network with ingress discarding.

One replication is a single-threaded loop over an event calendar holding
pending flow arrivals and service completions.  Simultaneous events fire
in a fixed order (completions before arrivals, then by class/flow id), so
a replication is a deterministic function of (spec, n, seed, horizon).

Discarding: an exogenous flow-f arrival is admitted iff every discarding
flag along the flow's route is off as of the instant just before the
arrival, so the arrival that pushes a queue to the threshold is itself
admitted and only later arrivals are dropped.  Flags switch on when a
queue reaches n*h and off when it drains to n*h - gap.

Scheduling: weighted round robin over a fixed per-station visit cycle
(w_f visits per cycle per flow), skipping empty queues, non-preemptive,
head of line only.  The cycle cursor persists across idle periods.

Engine: ``Simulation.run`` is the whole event loop.  It binds the state
lists, the network tables, ``heappush``/``heappop``, each stream's
``draw`` and ``check_invariants`` to locals once, then handles arrivals
and completions inline; the only call of its own is the local ``start``,
the round-robin pick.  In CPython a local read is an array index, while an
attribute read or a method call costs a dictionary lookup or a frame, and
those made up most of an event's time.  The lists are the ``Simulation``'s
own, mutated in place, so the attributes show the state after each event;
the clock ``t`` is written when the run ends or raises.
The callables are bound when ``run`` starts, not at import, so wrappers
installed on ``RenewalStream``, ``Simulation`` or ``heapq`` beforehand
see every call.  Stations start serving when ``run`` begins.

Invariant checks: ``invariant_checks`` is ``"off"``, ``"sparse"`` (after
every 1000th event, the default) or ``"every"`` (after every event).
``Simulation.check_invariants`` verifies the model's identities on the
current state: A = P^T D + Lambda, Q = Q(0) + A - D >= 0, monotone busy
and idle times, the thinning bound, the draw counts of the renewal
streams, work conservation and flag/threshold consistency.  Its reference
structure is read once, in ``Simulation.__init__``, from ``routing_matrix``
and ``constituency``, never from the index tables the engine runs on.
Any other mode, or sample times outside the horizon, raise before the
single-use ``Simulation`` is spent.
"""
from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import make_streams
from .network import NetworkSpec

__all__ = [
    "SimTrace",
    "ScaledPath",
    "Simulation",
    "SimulationError",
    "EventBudgetExceeded",
    "InvariantViolation",
    "EmptyWindowError",
    "run",
    "scaled_trajectory",
    "thresholds",
    "default_event_budget",
]


class SimulationError(RuntimeError):
    pass


class EventBudgetExceeded(SimulationError):
    pass


class InvariantViolation(SimulationError):
    pass


class EmptyWindowError(SimulationError):
    pass


@dataclass
class SimTrace:
    """Counters and windowed rate estimates from one replication."""

    n: float
    seed: int
    horizon: float
    warmup_frac: float
    exogenous: np.ndarray       # E, per flow
    admitted: np.ndarray        # thinned arrivals, per flow
    arrivals: np.ndarray        # A, per class
    departures: np.ndarray      # D, per class
    busy_time: np.ndarray       # T, per class
    idle_time: np.ndarray       # I, per station
    q_final: np.ndarray
    flags_final: np.ndarray
    flow_depart_rates: np.ndarray   # egress departures over the window
    flow_admit_rates: np.ndarray
    window: tuple
    event_count: int
    sample_times: Optional[np.ndarray] = None
    sample_q: Optional[np.ndarray] = None
    sample_d: Optional[np.ndarray] = None
    sample_admitted: Optional[np.ndarray] = None


@dataclass
class ScaledPath:
    """Fluid-scale view of a sampled queue path: t -> Q(n t) / n."""

    times: np.ndarray
    q: np.ndarray


# event kinds: completions fire before arrivals at equal times
_COMPLETION, _ARRIVAL = 0, 1

# invariant_checks mode -> events between checks (0: never)
_CHECK_PERIOD = {"off": 0, "sparse": 1000, "every": 1}


def thresholds(spec: NetworkSpec, n: float) -> tuple:
    """Discarding thresholds (n*h, n*h - gap) at scale n.  ValueError if the
    lower one is negative: a flag could then never switch off again."""
    nh = float(n) * spec.threshold_base
    low = nh - spec.hysteresis_gap
    if low < 0:
        raise ValueError(f"lower threshold n*h - gap = {low:g} is negative at n={float(n):g}")
    return nh, low


def default_event_budget(spec: NetworkSpec, horizon: float, initial_queues=None) -> int:
    """Event budget of a run to ``horizon``: ten times its expected event
    count, plus the departures of the initial backlog, plus 1000.

    Each exogenous arrival is one event and an admitted one causes one
    completion per hop of its route, so a run expects at most
    horizon * sum_f alpha_f * (1 + |route_f|) events; a job queued at
    class k at the start departs from k and from every class after it on
    its route.  Every run has this budget, and a run that exceeds it
    raises EventBudgetExceeded."""
    expected = horizon * sum(
        a * (1 + len(ks)) for a, ks in zip(spec.alpha.tolist(), spec.routes)
    )
    backlog = 0
    for k, qk in zip(range(spec.num_classes), () if initial_queues is None else initial_queues):
        c = k
        while c >= 0:
            backlog += int(qk)
            c = spec.successor[c]
    return int(min(10.0 * expected, sys.maxsize)) + backlog + 1000


class Simulation:
    """One seeded replication.  State is exposed for white-box tests."""

    def __init__(self, spec: NetworkSpec, n: float, seed: int, *, initial_queues=None):
        if not 0 < n < math.inf:
            raise ValueError("threshold scale n must be positive and finite")
        self.spec = spec
        self.n = float(n)
        self.seed = int(seed)
        self.nh, self.low = thresholds(spec, n)

        K, F, d = spec.num_classes, spec.num_flows, spec.num_stations
        self.arr_streams, self.svc_streams = make_streams(spec, seed)
        # reference structure for check_invariants, read from the matrices
        # rather than from the engine's own tables: per class the classes
        # routed into it and the flow entering at it (-1 if none), per
        # station the classes it serves
        P, C = spec.routing_matrix, spec.constituency
        entering = [-1] * K
        for f in range(F):
            entering[spec.class_of[(f, 0)]] = f
        self._feeds = tuple(
            (tuple(int(j) for j in np.flatnonzero(P[:, k])), entering[k]) for k in range(K)
        )
        self._served = tuple(tuple(int(k) for k in np.flatnonzero(C[i])) for i in range(d))

        self.t = 0.0
        self.q = [0] * K
        self.flags = [0] * K
        self.e = [0] * F
        self.lam = [0] * F
        self.a = [0] * K
        self.d = [0] * K
        self.busy = [0.0] * K           # cumulative busy time T
        self.busy_class = [-1] * d      # class in service, -1 if idle
        self.service_start = [0.0] * d
        self.cursor = [0] * d
        self.event_count = 0
        self.heap = []

        if initial_queues is not None:
            init = list(initial_queues)
            # 0 <= x < inf first: int() of inf or nan raises
            if len(init) != K or not all(0 <= x < math.inf and x == int(x) for x in init):
                raise ValueError("initial_queues must be nonnegative integers, one per class")
            self.q = [int(x) for x in init]
            for k in range(K):
                if self.q[k] >= self.nh:
                    self.flags[k] = 1
        self.q0 = list(self.q)

        # first arrivals; the stations start serving when ``run`` begins
        for f in range(F):
            heapq.heappush(self.heap, (self.arr_streams[f].draw(), _ARRIVAL, f))

        # previous values for monotonicity checks
        self._prev_busy = list(self.busy)
        self._prev_idle = [0.0] * d

    # -- invariant checking ------------------------------------------------

    def check_invariants(self, t: float) -> None:
        """Verify the flow/queue/idle-time identities at time t.

        Checks the arrival decomposition A = P^T D + Lambda, the queue
        balance Q = Q(0) + A - D with Q >= 0, monotone busy and idle
        times, the thinning bound, work conservation (no station idle
        while backlogged) and flag/threshold consistency.  P and the
        station constituency come from ``routing_matrix`` and
        ``constituency``, not from the tables the engine runs on.  The
        arithmetic is on Python ints and floats, so a check costs a few
        microseconds and can run after every event.
        """
        q, a, d, lam = self.q, self.a, self.d, self.lam
        for k, (preds, f) in enumerate(self._feeds):
            routed = lam[f] if f >= 0 else 0
            for j in preds:
                routed += d[j]
            if a[k] != routed:
                raise InvariantViolation("A != P^T D + Lambda")
        for q0k, ak, dk, qk in zip(self.q0, a, d, q):
            if qk != q0k + ak - dk:
                raise InvariantViolation("Q != Q(0) + A - D")
        if min(q) < 0:
            raise InvariantViolation("negative queue length")
        busy = self.busy[:]
        busy_class = self.busy_class
        for i, c in enumerate(busy_class):
            if c >= 0:
                busy[c] += t - self.service_start[i]
        for b, prev in zip(busy, self._prev_busy):
            if b < prev - 1e-9:
                raise InvariantViolation("busy time decreased")
        # explicit loops: on the few classes per station they beat
        # comprehensions and sum()
        idle = []
        for ks in self._served:
            total = 0
            for k in ks:
                total += busy[k]
            idle.append(t - total)
        if min(idle) < -1e-9:
            raise InvariantViolation("negative idle time")
        for x, prev in zip(idle, self._prev_idle):
            if x < prev - 1e-9:
                raise InvariantViolation("idle time decreased")
        for e, admitted, stream in zip(self.e, lam, self.arr_streams):
            if admitted > e:
                raise InvariantViolation("admitted more than arrived")
            # one interarrival is always drawn ahead of the pending event
            if e != stream.count - 1:
                raise InvariantViolation("arrival count disagrees with its stream")
        # departures are the composition of the service counting process
        # with the cumulative busy time: every departure is one drawn
        # service, with at most one draw in progress per station
        drawn = [stream.count for stream in self.svc_streams]
        for c in set(busy_class):
            if c >= 0:
                drawn[c] -= 1
        if drawn != d:
            raise InvariantViolation("departure count disagrees with its stream")
        for i, ks in enumerate(self._served):
            if busy_class[i] < 0:
                for k in ks:
                    if q[k] > 0:
                        raise InvariantViolation(f"station {i} idle while backlogged")
        nh, low, flags = self.nh, self.low, self.flags
        for k, qk in enumerate(q):
            if qk >= nh and not flags[k]:
                raise InvariantViolation(f"flag {k} off at/above threshold")
            if qk < low and flags[k]:
                raise InvariantViolation(f"flag {k} on below the lower threshold")
        self._prev_busy = busy
        self._prev_idle = idle

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        horizon: float,
        *,
        warmup_frac: float = 0.2,
        sample_times=None,
        invariant_checks: str = "sparse",
    ) -> SimTrace:
        if not 0 < horizon < math.inf or not 0.0 <= warmup_frac < 1.0:
            raise EmptyWindowError("empty measurement window")
        if invariant_checks not in _CHECK_PERIOD:
            raise ValueError(
                f"invariant_checks must be one of {', '.join(map(repr, _CHECK_PERIOD))}, "
                f"not {invariant_checks!r}"
            )
        stimes = None
        if sample_times is not None:
            stimes = np.asarray(sample_times, dtype=float)
            if np.any(stimes < 0) or np.any(stimes > horizon):
                raise SimulationError("sample times outside the horizon")
        # every argument is checked: from here on the run uses up the Simulation
        if getattr(self, "_ran", False):
            raise SimulationError("a Simulation is single-use; build a new one")
        self._ran = True
        spec = self.spec
        t_warm = warmup_frac * horizon
        warm_d = warm_lam = None
        s_list = [] if stimes is None else stimes.tolist()
        s_q = s_d = s_lam = None
        if stimes is not None:
            s_q = np.empty((len(s_list), spec.num_classes), dtype=np.int64)
            s_d = np.empty_like(s_q)
            s_lam = np.empty((len(s_list), spec.num_flows), dtype=np.int64)
        si, s_end = 0, len(s_list)
        # the earliest pending record, a sample time or the end of the
        # warmup: the first event after it records the state it finds (set
        # at the first event)
        mark = -math.inf

        period = _CHECK_PERIOD[invariant_checks]
        next_check = period if period else -1
        # the default is read through the module global, so a patched one applies
        budget = default_event_budget(spec, horizon, self.q0)

        # state, tables and callables in locals: the loop reads no attribute
        # and makes no method call of its own.  Bound here, not at import,
        # so that wrappers installed on the classes or on heapq see each call.
        q, a, d, lam, e, flags = self.q, self.a, self.d, self.lam, self.e, self.flags
        busy, busy_class = self.busy, self.busy_class
        service_start, cursor = self.service_start, self.cursor
        routes, successor, station_of = spec.routes, spec.successor, spec.station_of
        cycles, members = spec.cycles, spec.members
        nh, low = self.nh, self.low
        heap = self.heap
        heappush, heappop = heapq.heappush, heapq.heappop
        arr_draw = [s.draw for s in self.arr_streams]
        svc_draw = [s.draw for s in self.svc_streams]
        check = self.check_invariants

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
                    heappush(heap, (t + svc_draw[c](), _COMPLETION, c))
                    return
            busy_class[i] = -1

        for i in range(spec.num_stations):
            start(i, 0.0)

        events = 0
        t = 0.0
        try:
            while heap:
                ev = heappop(heap)
                t, kind, idx = ev
                if t > horizon:
                    heappush(heap, ev)
                    break
                if t > mark:
                    while si < s_end and s_list[si] < t:
                        s_q[si] = q
                        s_d[si] = d
                        s_lam[si] = lam
                        si += 1
                    if warm_d is None and t > t_warm:
                        warm_d = d[:]
                        warm_lam = lam[:]
                    mark = min(
                        s_list[si] if si < s_end else math.inf,
                        t_warm if warm_d is None else math.inf,
                    )
                if kind == _ARRIVAL:
                    f = idx
                    e[f] += 1
                    heappush(heap, (t + arr_draw[f](), _ARRIVAL, f))
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
                            if __debug__ and sum(q[c] for c in members[i]) != 1:
                                raise InvariantViolation(f"station {i} idle while backlogged")
                            start(i, t)
                else:
                    k = idx
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
            self.t = t  # the state is that of the event the run stopped in
            raise

        self.t = horizon
        self.event_count = events
        while si < s_end:
            s_q[si] = q
            s_d[si] = d
            s_lam[si] = lam
            si += 1
        if warm_d is None:
            warm_d = d[:]
            warm_lam = lam[:]

        # truncate in-progress services at the horizon for T and I
        busy = busy[:]
        for i, c in enumerate(busy_class):
            if c >= 0:
                busy[c] += horizon - service_start[i]
        busy = np.array(busy)
        idle = horizon - spec.constituency.astype(float) @ busy

        span = horizon - t_warm
        dep_rates = np.array([(d[k] - warm_d[k]) / span for k in spec.egress])
        adm_rates = np.array([(lam[f] - warm_lam[f]) / span for f in range(spec.num_flows)])
        return SimTrace(
            n=self.n,
            seed=self.seed,
            horizon=horizon,
            warmup_frac=warmup_frac,
            exogenous=np.array(e),
            admitted=np.array(lam),
            arrivals=np.array(a),
            departures=np.array(d),
            busy_time=busy,
            idle_time=idle,
            q_final=np.array(q),
            flags_final=np.array(flags),
            flow_depart_rates=dep_rates,
            flow_admit_rates=adm_rates,
            window=(t_warm, horizon),
            event_count=events,
            sample_times=stimes,
            sample_q=s_q,
            sample_d=s_d,
            sample_admitted=s_lam,
        )


def run(
    spec: NetworkSpec,
    n: float,
    seed: int,
    horizon: float,
    *,
    warmup_frac: float = 0.2,
    initial_queues=None,
    sample_times=None,
    invariant_checks: str = "sparse",
) -> SimTrace:
    """Simulate one replication to ``horizon`` and return its trace.  The
    run has ``default_event_budget``."""
    sim = Simulation(spec, n, seed, initial_queues=initial_queues)
    return sim.run(
        horizon,
        warmup_frac=warmup_frac,
        sample_times=sample_times,
        invariant_checks=invariant_checks,
    )


def scaled_trajectory(trace: SimTrace, n: float) -> ScaledPath:
    """Fluid-scale path t -> Q(n t)/n from a trace sampled on a grid."""
    if trace.sample_times is None:
        raise SimulationError("trace was not sampled; rerun with sample_times")
    if trace.sample_times[-1] > trace.horizon + 1e-9:
        raise SimulationError("insufficient horizon for the requested scaled window")
    return ScaledPath(times=trace.sample_times / n, q=trace.sample_q / n)
