"""Wall-clock timing corrected for the machine's current speed.

On a shared machine the same call can take 1.7 times longer from one
second to the next, because other tenants contend for the core.  The
stopwatch therefore runs a fixed calibration probe before and after every
timed call and rescales the call's wall time by REF_S over the probe's
mean time around it: the result is the time the call would have taken on
a machine that runs the probe in REF_S seconds ("reference seconds").
The probe exercises the same kinds of work as qnet (interpreted loops,
heap and dict operations, scalar math, numpy generator draws and small
array operations) and never touches qnet, so a change to qnet moves the
rescaled times exactly as it moves the wall times.  Changing the probe or
REF_S changes every calibrated metric and belongs only in a change that
redefines the benchmark.
"""
from __future__ import annotations

import heapq
import math
import time

import numpy as np

REF_S = 0.005
_PROBE_STEPS = 3000


def probe() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    heap, counts, acc = [], {}, 0.0
    grid = np.arange(8.0)
    for i in range(_PROBE_STEPS):
        u = rng.random()
        heapq.heappush(heap, (-math.log1p(-u), i))
        counts[i % 17] = counts.get(i % 17, 0) + 1
        if len(heap) > 20:
            acc += heapq.heappop(heap)[0]
        if i % 50 == 0:
            acc += float(np.abs(grid - u).max())
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("calibration probe computed nothing")
    return elapsed


class Stopwatch:
    """Times calls back to back: ``watch(fn, *args)`` returns the result,
    the wall seconds and the reference seconds of the call.  Uncalibrated,
    it runs no probe and the reference seconds equal the wall seconds."""

    def __init__(self, calibrated: bool = True):
        self.calibrated = calibrated
        self.probes: list = []
        self._before = None
        if calibrated:
            probe()  # the first probe pays for lazy set-up; discard it

    def _probe(self) -> float:
        p = probe()
        self.probes.append(p)
        return p

    def __call__(self, fn, *args, **kwargs):
        if self.calibrated and self._before is None:
            self._before = self._probe()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        if not self.calibrated:
            return result, wall, wall
        after = self._probe()
        ref = wall * REF_S / (0.5 * (self._before + after))
        self._before = after
        return result, wall, ref
