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

Engine: ``Simulation.__init__`` turns (spec, n, seed) into what the
engine runs: the float and integer thresholds, the streams and the
first arrivals.  The streams read the seed's interval tapes (``distributions.Tape``): a
caller that runs one seed at several n passes the same ``tapes`` to
each run, which then computes only the intervals no earlier run drew.
``Simulation.run`` checks its own arguments, lays out the records and
calls the event loop of the spec's network structure and of its mode,
checked or not.  ``_compile_loop`` generates it as straight-line code
with fixed indices, once per structure and mode: it is keyed by the
spec's ``routes``, ``successor``, ``station_of``, ``cycles`` and
``members`` and by ``checked``, takes 1-4 ms and is cached for up to 256
keys.  A binary ``if``
tree on the event code leads to one handler per class and per flow, so
no event looks up a route, a station or a successor; an arrival tests
its route's flags as one ``or``-chain, a station with one class in its
cycle starts service inline, and one with more runs one loop over its
rotation table.  The queues, which are ints, are compared with the
integer thresholds ceil(n*h) and floor(n*h - gap).  The source grows
linearly in the classes and flows, not in the cycle lengths, since a
workload of many structures compiles one loop each; it is dropped once
compiled.  The loop keeps the state lists, ``heapq``'s functions and
each stream's draw callable or iterator in locals; the lists are the
``Simulation``'s own, mutated in place, so the attributes show the state
after each event, and the clock ``t`` is written when the run ends or
raises.  Both modes run one skeleton: ``itertools.repeat`` bounds the
events, its exhaustion raises the budget error, and the event count is
E + D, one exogenous arrival or one completion each.  A checked run
(``"sparse"``, ``"every"``) adds only what the check reads: a countdown
to the next check, which runs at the top of the next iteration, the
arrivals A per class, and its draws through each stream's ``draw``,
which counts them.  An ``"off"`` run takes each interval with ``next``
off its stream's ``intervals``, the same C-level iterator, so it draws
the same intervals in the same order with no Python frame per interval;
when it ends or raises, ``run`` sets A and each stream's ``count`` from
the other counters, to what the checked loop holds.  The callables are
bound when ``run`` starts, not when the loop is compiled, so wrappers
installed on ``Simulation`` or ``heapq`` beforehand see every call, and
one on ``RenewalStream.draw`` every draw of a checked run but only the
first arrivals, drawn when the ``Simulation`` is built, of an ``"off"``
run.  Stations start serving when ``run`` begins.

Invariant checks: ``invariant_checks`` is ``"off"``, ``"sparse"`` (after
every 1000th event, the default) or ``"every"`` (after every event).
``Simulation.check_invariants`` verifies the model's identities on the
current state: A = P^T D + Lambda, Q = Q(0) + A - D >= 0, monotone busy
and idle times, the thinning bound, the draw counts of the renewal
streams, work conservation and flag/threshold consistency.  Its reference
structure, the spec's ``check_structure``, is read once per spec from
``routing_matrix`` and ``constituency``, never from the index tables the
engine runs on, and compiled into a function of straight-line code with
fixed indices, once per structure (``_compile_check``, about 1 ms): a
loop over the structure spent most of a check's time on the loop itself.
The function unpacks each state list into locals once per call.
Measured in process time on 2 shared cores (medians of 12 passes), an
``"every"`` run takes 3.5 times as long per event as an ``"off"`` run on
the 100 ``checked_random`` networks (3.50 against 1.00 us) and 6.1 times
on the switch at n=100 (6.24 against 1.02 us); an ``"off"`` run keeps no
count that only the check reads and draws no interval through a Python
call, a checked one every interval.
Any other mode, or sample times that are not a 1-D array within the
horizon, raise before the single-use ``Simulation`` is spent.

Records: the sample times and the end of the warmup form one stably
sorted list.  The first event after a record's time stores (q, D, Lambda)
as it finds them, the state at that time, and records still open at the
end take the final state.  The samples are their records in the given
order; the window rates subtract the warmup's.
"""
from __future__ import annotations

import functools
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


# invariant_checks mode -> events between checks (0: never)
_CHECK_PERIOD = {"off": 0, "sparse": 1000, "every": 1}


def thresholds(spec: NetworkSpec, n: float) -> tuple:
    """Discarding thresholds at scale n, as ``(nh, low), (hi, off)``.

    The floats nh = n*h and low = n*h - gap are what the invariant check
    reads.  The integers are what the event loop compares its int queues
    with: a flag is on at or above hi = ceil(n*h) and off at or below
    off = floor(n*h - gap), which is below hi.  ValueError if n*h is not
    finite, or if the lower threshold is negative: a flag could then never
    switch off again."""
    nh = float(n) * spec.threshold_base
    low = nh - spec.hysteresis_gap
    if not nh < math.inf:  # nan included
        raise ValueError(f"threshold n*h = {nh:g} is not finite at n={float(n):g}")
    if low < 0:
        raise ValueError(f"lower threshold n*h - gap = {low:g} is negative at n={float(n):g}")
    hi = math.ceil(nh)
    return (nh, low), (hi, min(math.floor(low), hi - 1))


def default_event_budget(spec: NetworkSpec, horizon: float, initial_queues=None) -> int:
    """Event budget of a run to ``horizon``: ten times its expected event
    count, plus the departures of the initial backlog, plus 1000.

    Each exogenous arrival is one event and an admitted one causes one
    completion per hop of its route, so a run expects at most
    horizon * sum_f alpha_f * (1 + |route_f|) events; a job queued at
    class k at the start departs from k and from every class after it on
    its route.  Every run has this budget, and a run that exceeds it
    raises EventBudgetExceeded."""
    expected = 0.0  # left to right: builtin sum rounds differently on 3.12+
    for a, ks in zip(spec.alpha, spec.routes):
        expected += a * (1 + len(ks))
    expected *= horizon
    backlog = 0
    for k, qk in zip(range(spec.num_classes), () if initial_queues is None else initial_queues):
        c = k
        while c >= 0:
            backlog += int(qk)
            c = spec.successor[c]
    return int(min(10.0 * expected, sys.maxsize)) + backlog + 1000


def _define(lines: list, filename: str, namespace: dict):
    """The one function that the generated ``lines`` define, compiled with
    ``namespace`` as its globals.  The text is dropped once compiled."""
    defined = {}
    exec(compile("\n".join(lines) + "\n", filename, "exec"), namespace, defined)
    (function,) = defined.values()
    return function


@functools.lru_cache(maxsize=256)
def _compile_loop(routes: tuple, successor: tuple, station_of: tuple, cycles: tuple, members: tuple,
                  checked: bool):
    """The event loop of one network structure, as a function of
    straight-line code with fixed indices: the loop of a checked run if
    ``checked``, else that of an unchecked one.

    The function is ``loop(sim, horizon, budget, period, check, hi, off,
    marks, records, order)``.  It starts the stations and runs ``sim``
    from its calendar to ``horizon`` under ``itertools.repeat(None,
    budget + 1)``, whose exhaustion raises EventBudgetExceeded after
    ``budget`` events; it stores (q, D, Lambda) in ``records[order[r]]``
    at the first event after ``marks[r]``, and returns ``sum(E) + sum(D)``,
    the event count, since every event is one exogenous arrival or one
    completion, and the number of records stored.  Both modes share this
    text; the checked one adds only what the invariant check reads.  It
    counts down ``period`` (positive) events and calls ``check(t)`` at the
    top of the next iteration, so a check follows every ``period``-th
    event, the last one before a normal end included, but not the event
    that overruns the budget; it counts each class's arrivals in A and
    draws through each stream's ``draw``, which counts the draws.  The
    unchecked loop ignores ``period`` and ``check`` and takes each interval
    with ``next`` off its stream's ``intervals``; ``Simulation.run`` sets A
    and the draw counts when it ends.  An event
    is ``(t, code)``, ``code`` the class k of a completion or K + f for an
    arrival of flow f, so completions fire before arrivals at equal times,
    then by class or flow id.  Each flow always has an arrival on the
    calendar, so the loop peeks at the heap top without testing for an
    empty heap, and branches to the event's handler on a binary ``if``
    tree over the codes.  An arrival tests its route's flags as one
    ``or``-chain and reschedules itself with ``heapreplace``.  A station with one class in its cycle starts
    service inline; one with more runs one loop over its rotation table of
    (class, next cursor) pairs.  The queues are compared with the integer
    thresholds ``hi`` (flag on at or above) and ``off`` (flag off at or
    below).  The source grows linearly in the classes and flows, and a
    cycle's length sizes only its rotation table.
    """
    from itertools import repeat  # loaded already, by distributions

    K, F = len(successor), len(routes)
    namespace = {"heapq": heapq, "EventBudgetExceeded": EventBudgetExceeded,
                 "InvariantViolation": InvariantViolation, "repeat": repeat}
    # per station of two or more classes: (class, next cursor) at each cursor
    for i, cyc in enumerate(cycles):
        if len(cyc) > 1:
            namespace[f"R{i}"] = tuple((c, (j + 1) % len(cyc)) for j, c in enumerate(cyc))

    def only(*checked_lines):
        # lines that only a checked run keeps: what the invariant check reads
        return list(checked_lines) if checked else []

    def draw(stream):
        # the next interval of ``stream``: its counted ``draw``, or the next
        # item of its ``intervals`` with no Python frame
        return f"{stream}()" if checked else f"nx({stream})"

    def pick(i, own):
        # the round robin at station i: serve the first nonempty class at or
        # after the cursor, or idle and keep the cursor; ``own``: the heap
        # top is station i's completion, replaced by the new one or popped
        push = "heapreplace" if own else "heappush"
        idle = [f"busy_class[{i}] = -1"] + (["heappop(heap)"] if own else []) + ["break"]
        return [f"j = cur = cursor[{i}]", "while True:", f"    c, j = R{i}[j]", "    if q[c] > 0:",
                f"        cursor[{i}] = j", f"        busy_class[{i}] = c", f"        service_start[{i}] = t",
                f"        {push}(heap, (t + {draw('ss[c]')}, c))", "        break", "    if j == cur:",
                ] + ["        " + x for x in idle]

    def serve(k):
        # station i of a one-class cycle starts serving class k
        i = station_of[k]
        return [f"busy_class[{i}] = {k}", f"service_start[{i}] = t",
                f"heappush(heap, (t + {draw(f'ss{k}')}, {k}))"]

    def enqueue(k):
        # one job joins class k; an idle station starts serving
        i = station_of[k]
        backlog = " + ".join(f"q[{c}]" for c in members[i])
        return [f"x = q[{k}] + 1", f"q[{k}] = x"] + only(f"a[{k}] += 1") + [
                "if x >= hi:", f"    flags[{k}] = 1",
                f"if busy_class[{i}] < 0:", f"    if __debug__ and {backlog} != 1:",
                f"        raise InvariantViolation({f'station {i} idle while backlogged'!r})",
                ] + ["    " + x for x in (pick(i, False) if len(cycles[i]) > 1 else serve(k))]

    def handler(code):
        if code >= K:
            f = code - K
            route = routes[f]
            flagged = " or ".join(f"flags[{k}]" for k in route)
            return [f"e[{f}] += 1", f"heapreplace(heap, (t + {draw(f'sa{f}')}, {code}))",
                    f"if not ({flagged}):", f"    lam[{f}] += 1"] + ["    " + x for x in enqueue(route[0])]
        # a departure only clears a flag: at or above ``hi`` it is on already
        k, i, l = code, station_of[code], successor[code]
        lines = [f"busy[{k}] += t - service_start[{i}]", f"d[{k}] += 1", f"x = q[{k}] - 1", f"q[{k}] = x",
                 "if x <= off:", f"    flags[{k}] = 0"]
        if len(cycles[i]) > 1:
            lines += pick(i, True)
        else:
            lines += ["if x > 0:", f"    service_start[{i}] = t",
                      f"    heapreplace(heap, (t + {draw(f'ss{k}')}, {k}))",
                      "else:", f"    busy_class[{i}] = -1", "    heappop(heap)"]
        return lines + (enqueue(l) if l >= 0 else [])

    def dispatch(codes, pad):
        if len(codes) == 1:
            return [pad + x for x in handler(codes[0])]
        mid = len(codes) // 2
        return ([f"{pad}if code < {codes[mid]}:"] + dispatch(codes[:mid], pad + "    ")
                + [f"{pad}else:"] + dispatch(codes[mid:], pad + "    "))

    codes = sorted(c for cyc in cycles for c in set(cyc)) + list(range(K, K + F))
    source = "draw" if checked else "intervals"
    lines = [
        "def loop(sim, horizon, budget, period, check, hi, off, marks, records, order):",
        "    q, d, lam, e, flags = sim.q, sim.d, sim.lam, sim.e, sim.flags",
        "    busy, busy_class, service_start, cursor = sim.busy, sim.busy_class, sim.service_start, sim.cursor",
        "    heap = sim.heap",
        "    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace",
        "    a = sim.a" if checked else "    nx = next",
        f"    {''.join(f'sa{f}, ' for f in range(F))}= [s.{source} for s in sim.arr_streams]",
        f"    ss = [s.{source} for s in sim.svc_streams]",
        f"    {''.join(f'ss{k}, ' for k in range(K))}= ss",
        "    t = 0.0",
    ]
    for i, cyc in enumerate(cycles):
        if len(cyc) > 1:
            lines += ["    " + x for x in pick(i, False)]
        elif cyc:
            lines += [f"    if q[{cyc[0]}] > 0:"] + ["        " + x for x in serve(cyc[0])]
    lines += ["    r = 0", "    mark = marks[0]", "    stop = min(mark, horizon)"]
    # a checked run counts down the events to its next check, which runs at
    # the top of the next iteration: after the last event before a break too,
    # but not after the event that overruns the budget
    lines += only("    left = period") + ["    try:", "        for _ in repeat(None, budget + 1):"]
    lines += only("            if not left:", "                check(t)", "                left = period")
    lines += [
        "            t, code = heap[0]",
        "            if t > stop:",
        "                if t > horizon:",
        "                    break",
        "                while t > mark:",
        "                    records[order[r]] = q + d + lam",
        "                    r += 1",
        "                    mark = marks[r]",
        "                stop = min(mark, horizon)",
    ]
    lines += dispatch(codes, "            ") + only("            left -= 1")
    lines += [
        "        else:",
        "            raise EventBudgetExceeded(f'exceeded event budget {budget} at t={t:.6g}')",
        "    except BaseException:",
        "        sim.t = t",
        "        raise",
        "    return sum(e) + sum(d), r",
    ]
    return _define(lines, "<event loop>", namespace)


@functools.lru_cache(maxsize=256)
def _compile_check(feeds: tuple, served: tuple, num_flows: int):
    """The invariant check of one network structure, as a function
    ``check(sim, t)`` of straight-line code.

    ``feeds[k]`` is (the classes routed into class k, the flow entering at
    k or -1), ``served[i]`` the classes station i serves.  Each identity
    is one ``or``-chain over fixed indices, and a check whose message
    names a station, a class or a flow is one ``if`` per index, in the
    order of that index, so the first identity that fails raises its
    message.  The function reads every piece of state from ``sim`` on
    each call, unpacking each list into one local per entry (``q0, q1, =
    sim.q``) the first time an identity reads it, so that no entry is
    subscripted twice, and stores the busy and idle times it computed for
    the next call's monotonicity checks.  Only the busy times are built by
    subscript: each in-progress service adds to the copy's entry of the
    class its station names, which may be any class, before the copy is
    unpacked.  The classes in service stay a list, tested with ``in``.
    The source holds only integer indices and fixed text.  Compiling
    takes about a millisecond, so it is done once per structure.
    """
    K, F = len(feeds), int(num_flows)

    def total(terms):
        return " + ".join(terms) or "0"

    def fail_if(condition, message):
        return [f"    if {condition}:", f"        raise InvariantViolation({message!r})"]

    def fail_if_any(conditions, message):
        return fail_if(" or ".join(conditions), message)

    def unpack(prefix, size, source):
        # one local per entry of the list ``source``, named prefix + index
        return [f"    {''.join(f'{prefix}{j}, ' for j in range(size))}= {source}"] if size else []

    stations = range(len(served))
    lines = (["def check(sim, t):"] + unpack("q", K, "sim.q") + unpack("a", K, "sim.a")
             + unpack("d", K, "sim.d") + unpack("lam", F, "sim.lam"))
    routed = [
        total(([f"lam{int(f)}"] if f >= 0 else []) + [f"d{int(j)}" for j in preds])
        for preds, f in feeds
    ]
    lines += fail_if_any([f"a{k} != {r}" for k, r in enumerate(routed)], "A != P^T D + Lambda")
    lines += unpack("q0_", K, "sim.q0")
    lines += fail_if_any([f"q{k} != q0_{k} + a{k} - d{k}" for k in range(K)], "Q != Q(0) + A - D")
    lines += fail_if_any([f"q{k} < 0" for k in range(K)], "negative queue length")
    # in-progress services count towards the busy time of their class
    lines += ["    b = sim.busy[:]", "    bc = sim.busy_class", "    ss = sim.service_start"]
    for i in stations:
        lines += [f"    c = bc[{i}]", "    if c >= 0:", f"        b[c] += t - ss[{i}]"]
    lines += unpack("b", K, "b") + unpack("pb", K, "sim._prev_busy")
    lines += fail_if_any([f"b{k} < pb{k} - 1e-9" for k in range(K)], "busy time decreased")
    lines += [f"    i{i} = t - ({total(f'b{int(k)}' for k in served[i])})" for i in stations]
    lines += fail_if_any([f"i{i} < -1e-9" for i in stations], "negative idle time")
    lines += unpack("pi", len(served), "sim._prev_idle")
    lines += fail_if_any([f"i{i} < pi{i} - 1e-9" for i in stations], "idle time decreased")
    # one interarrival is always drawn ahead of the pending event
    lines += unpack("e", F, "sim.e") + unpack("arr", F, "sim.arr_streams")
    for f in range(F):
        lines += fail_if(f"lam{f} > e{f}", "admitted more than arrived")
        lines += fail_if(f"e{f} != arr{f}.count - 1", "arrival count disagrees with its stream")
    # departures are the composition of the service counting process with
    # the cumulative busy time: every departure is one drawn service, with
    # one more draw in progress for each class in service
    lines += unpack("svc", K, "sim.svc_streams")
    lines += fail_if_any([f"svc{k}.count - ({k} in bc) != d{k}" for k in range(K)],
                         "departure count disagrees with its stream")
    for i in stations:
        if served[i]:
            backlog = " or ".join(f"q{int(k)} > 0" for k in served[i])
            lines += fail_if(f"bc[{i}] < 0 and ({backlog})", f"station {i} idle while backlogged")
    lines += ["    nh = sim.nh", "    low = sim.low"] + unpack("flag", K, "sim.flags")
    for k in range(K):
        lines += fail_if(f"q{k} >= nh and not flag{k}", f"flag {k} off at/above threshold")
        lines += fail_if(f"q{k} < low and flag{k}", f"flag {k} on below the lower threshold")
    lines += [
        "    sim._prev_busy = b",
        f"    sim._prev_idle = [{', '.join(f'i{i}' for i in stations)}]",
    ]
    return _define(lines, "<invariant check>", {"InvariantViolation": InvariantViolation})


class Simulation:
    """One seeded replication.  State is exposed for white-box tests.

    The streams read ``tapes``, the ``distributions.SeedTapes`` of this
    seed for the spec's laws (ValueError for any other), so that runs of
    one seed at several n compute its intervals once; without them the run
    builds private tapes of its seed, which keep no interval.  Either way
    the run draws the same intervals: each stream is a
    ``RenewalStream(tape)``, whose ``count`` is its position on its tape
    after ``run`` (see ``run`` for when it is counted).
    """

    def __init__(self, spec: NetworkSpec, n: float, seed: int, *, initial_queues=None, tapes=None):
        if not 0 < n < math.inf:
            raise ValueError("threshold scale n must be positive and finite")
        if not (0 <= seed < math.inf and seed == int(seed)):
            raise ValueError(f"seed must be a nonnegative integer, not {seed!r}")
        self.spec = spec
        self.n = float(n)
        self.seed = int(seed)
        (self.nh, self.low), (self.hi, self.off) = thresholds(spec, n)

        K, F, d = spec.num_classes, spec.num_flows, spec.num_stations
        self.arr_streams, self.svc_streams = make_streams(spec, self.seed, tapes)
        # read through the module global, so a patched one applies
        self._check = _compile_check(*spec.check_structure, F)

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
            if any(init[k] for k in spec.idle_slots):
                raise ValueError(f"initial_queues must be 0 at the idle slots {sorted(spec.idle_slots)}")
            self.q = [int(x) for x in init]
            for k in range(K):
                if self.q[k] >= self.hi:
                    self.flags[k] = 1
        self.q0 = list(self.q)

        # first arrivals; the stations start serving when ``run`` begins
        for f in range(F):
            heapq.heappush(self.heap, (self.arr_streams[f].draw(), K + f))

        # previous values for monotonicity checks
        self._prev_busy = list(self.busy)
        self._prev_idle = [0.0] * d

    # -- invariant checking ------------------------------------------------

    def check_invariants(self, t: float) -> None:
        """Verify the flow/queue/idle-time identities at time t.

        Checks the arrival decomposition A = P^T D + Lambda, the queue
        balance Q = Q(0) + A - D with Q >= 0, monotone busy and idle
        times, the thinning bound, the draw counts of the renewal streams,
        work conservation (no station idle while backlogged) and
        flag/threshold consistency, and raises InvariantViolation at the
        first that fails.  P and the station constituency come from the
        spec's ``check_structure``, read from ``routing_matrix`` and
        ``constituency``, not from the tables the engine runs on.  The
        checks are straight-line code compiled once per network structure
        (``_compile_check``), which reads the state from this Simulation
        on each call; a check costs about 3 us on the switch and 0.7-3 us
        on the ``checked_random`` networks, so it can run after every
        event.
        """
        self._check(self, t)

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        horizon: float,
        *,
        warmup_frac: float = 0.2,
        sample_times=None,
        invariant_checks: str = "sparse",
    ) -> SimTrace:
        """Run to ``horizon`` and return the trace, measuring the rates over
        the last ``1 - warmup_frac`` of it and recording (q, D, Lambda) at
        each of ``sample_times``.

        ``invariant_checks`` is ``"off"``, ``"sparse"`` or ``"every"`` (see
        the module docstring), and selects the event loop: both modes run
        one loop, to which a checked run adds the countdown to its next
        check, the arrivals A per class and every interval through
        ``RenewalStream.draw``, which counts it.  An ``"off"`` run takes
        them uncounted off the streams' ``intervals`` and counts no
        arrival.  When it ends or raises, it sets A and each stream's
        ``count`` to what the check holds them to.  Class k's arrivals are
        its inflow in ``spec.feeder``: the departures of the class before
        k, or the admissions of the flow entering at k.  Flow f's count is
        its exogenous arrivals plus one (the arrival pending on the
        calendar).  Class k's count is its departures, plus one while k is
        in service.  Raises
        EventBudgetExceeded after ``default_event_budget`` events; a
        Simulation runs once.
        """
        if not 0 < horizon < math.inf or not 0.0 <= warmup_frac < 1.0:
            raise EmptyWindowError("empty measurement window")
        if invariant_checks not in _CHECK_PERIOD:
            raise ValueError(
                f"invariant_checks must be one of {', '.join(map(repr, _CHECK_PERIOD))}, "
                f"not {invariant_checks!r}"
            )
        stimes = None if sample_times is None else np.asarray(sample_times, dtype=float)
        if stimes is not None and (stimes.ndim != 1 or not np.all((stimes >= 0) & (stimes <= horizon))):
            raise SimulationError("sample times outside the horizon")  # nan included
        # every argument is checked: from here on the run uses up the Simulation
        if getattr(self, "_ran", False):
            raise SimulationError("a Simulation is single-use; build a new one")
        self._ran = True
        spec = self.spec
        K, F = spec.num_classes, spec.num_flows
        t_warm = warmup_frac * horizon
        # a row of (q, d, lam) per sample time, then one for the warmup's end
        rec_times = ([] if stimes is None else stimes.tolist()) + [t_warm]
        m = len(rec_times) - 1
        order = sorted(range(m + 1), key=rec_times.__getitem__)
        marks = [rec_times[j] for j in order] + [math.inf]
        records = np.empty((m + 1, 2 * K + F), dtype=np.int64)

        period = _CHECK_PERIOD[invariant_checks]
        # both are read through the module globals, so a patched one applies
        budget = default_event_budget(spec, horizon, self.q0)
        loop = _compile_loop(spec.routes, spec.successor, spec.station_of, spec.cycles, spec.members,
                             period > 0)
        # bound here, not at import, so that a wrapper installed on the class
        # sees each check
        try:
            events, r = loop(self, horizon, budget, period, self.check_invariants, self.hi, self.off,
                             marks, records, order)
        finally:
            if not period:
                # the unchecked loop counted no draw and no arrival: each flow
                # drew its first arrival and one per arrival, each class one
                # service per departure and one more while in service; a
                # class's arrivals are its inflow, the departures of the class
                # before it or its flow's admissions (``spec.feeder``)
                for stream, e in zip(self.arr_streams, self.e):
                    stream.count = e + 1
                for k, (stream, d) in enumerate(zip(self.svc_streams, self.d)):
                    stream.count = d + (k in self.busy_class)
                inflow = self.d + self.lam
                for k, j in enumerate(spec.feeder):
                    if j >= 0:
                        self.a[k] = inflow[j]
        self.t = horizon
        self.event_count = events
        q, d, lam = self.q, self.d, self.lam
        records[order[r:]] = q + d + lam
        rec_q, rec_d, rec_lam = np.split(records, [K, 2 * K], axis=1)
        warm_d, warm_lam = rec_d[m], rec_lam[m]

        # truncate in-progress services at the horizon for T and I
        busy = self.busy[:]
        for i, c in enumerate(self.busy_class):
            if c >= 0:
                busy[c] += horizon - self.service_start[i]
        busy = np.array(busy)
        idle = horizon - spec.constituency.astype(float) @ busy

        span = horizon - t_warm
        dep_rates = (np.array(d) - warm_d)[spec.egress] / span
        adm_rates = (np.array(lam) - warm_lam) / span
        return SimTrace(
            n=self.n,
            seed=self.seed,
            horizon=horizon,
            warmup_frac=warmup_frac,
            exogenous=np.array(self.e),
            admitted=np.array(lam),
            arrivals=np.array(self.a),
            departures=np.array(d),
            busy_time=busy,
            idle_time=idle,
            q_final=np.array(q),
            flags_final=np.array(self.flags),
            flow_depart_rates=dep_rates,
            flow_admit_rates=adm_rates,
            window=(t_warm, horizon),
            event_count=events,
            sample_times=stimes,
            sample_q=None if stimes is None else rec_q[:m],
            sample_d=None if stimes is None else rec_d[:m],
            sample_admitted=None if stimes is None else rec_lam[:m],
        )


def run(spec: NetworkSpec, n: float, seed: int, horizon: float, *, initial_queues=None, tapes=None,
        **options) -> SimTrace:
    """Simulate one replication to ``horizon`` and return its trace:
    ``options`` (``warmup_frac``, ``sample_times``, ``invariant_checks``)
    go to ``Simulation.run``.  The run has ``default_event_budget`` and
    reads its intervals from ``tapes`` (see ``Simulation``); with
    ``invariant_checks="off"`` it takes them with no call of
    ``RenewalStream.draw`` past the first arrivals, and sets A and the
    streams' counts when it ends."""
    return Simulation(spec, n, seed, initial_queues=initial_queues, tapes=tapes).run(horizon, **options)


def scaled_trajectory(trace: SimTrace, n: float) -> ScaledPath:
    """Fluid-scale path t -> Q(n t)/n from a trace sampled on a grid."""
    if trace.sample_times is None:
        raise SimulationError("trace was not sampled; rerun with sample_times")
    return ScaledPath(times=trace.sample_times / n, q=trace.sample_q / n)
