"""Interarrival/service time laws and seeded renewal streams.

All sampling is inverse-CDF on a single uniform draw, so samples are a
monotone function of the underlying uniform and replications are exactly
reproducible from a master seed.  ``DistributionSpec.quantiles(us)`` holds
the one scalar formula per law (``-log1p(-u)/rate``, ``((1-u)^-1/2 - 1)/rate``,
the point mass, ``inf`` at rate 0) as a list comprehension over Python
floats; ``quantile(u)`` is its range check plus ``quantiles([u])[0]``.
Renewal streams take their uniforms from the generator in small blocks and
turn each block into intervals with one ``quantiles`` call; that changes no
sample (see ``RenewalStream``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXPONENTIAL = "exponential"
PARETO_PAPER = "pareto_paper"
DETERMINISTIC = "deterministic"

KINDS = (EXPONENTIAL, PARETO_PAPER, DETERMINISTIC)


@dataclass(frozen=True)
class DistributionSpec:
    """Tagged union of the supported time distributions.

    ``exponential(rate)`` and ``pareto_paper(rate)`` are parametrized by
    their mean rate (mean time = 1/rate).  ``pareto_paper(a)`` is the
    heavy-tailed law with survival function P(X > s) = 1/(a*s + 1)^2; its
    mean is 1/a and its second moment is infinite, so sample paths show
    long starvation gaps.  ``deterministic(v)`` is the point mass at v; it
    has bounded support and is flagged by validation when used for flow
    arrivals (the long-run rate results assume unbounded, spread-out
    interarrival times).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown distribution kind: {self.kind!r}")
        if not (self.param >= 0.0):
            raise ValueError("distribution parameter must be nonnegative")

    @classmethod
    def exponential(cls, rate: float) -> "DistributionSpec":
        return cls(EXPONENTIAL, float(rate))

    @classmethod
    def pareto_paper(cls, rate: float) -> "DistributionSpec":
        return cls(PARETO_PAPER, float(rate))

    @classmethod
    def deterministic(cls, value: float) -> "DistributionSpec":
        return cls(DETERMINISTIC, float(value))

    @property
    def mean(self) -> float:
        if self.kind == DETERMINISTIC:
            return self.param
        return math.inf if self.param == 0.0 else 1.0 / self.param

    @property
    def rate(self) -> float:
        """Mean rate (1/mean)."""
        if self.kind == DETERMINISTIC:
            return math.inf if self.param == 0.0 else 1.0 / self.param
        return self.param

    @property
    def unbounded_support(self) -> bool:
        """True if P(X >= x) > 0 for every x (exponential, pareto)."""
        return self.kind != DETERMINISTIC

    def survival(self, s: float) -> float:
        """P(X > s)."""
        if s < 0:
            return 1.0
        if self.kind == EXPONENTIAL:
            return math.exp(-self.param * s)
        if self.kind == PARETO_PAPER:
            return 1.0 / (self.param * s + 1.0) ** 2
        return 1.0 if s < self.param else 0.0

    def quantile(self, u: float) -> float:
        """Inverse CDF at u in [0, 1)."""
        if not 0.0 <= u < 1.0:
            raise ValueError("u must lie in [0, 1)")
        return self.quantiles([u])[0]

    def quantiles(self, us) -> list:
        """Inverse CDF at each u of ``us``, all in [0, 1) (not checked).

        One scalar formula per law, applied to Python floats in a list
        comprehension, so each value equals ``quantile(u)`` bit for bit.
        """
        p = self.param
        if self.kind == DETERMINISTIC:
            return [p] * len(us)
        if p == 0.0:
            return [math.inf] * len(us)
        if self.kind == EXPONENTIAL:
            log1p = math.log1p
            return [-log1p(-u) / p for u in us]
        # pareto_paper: solve 1/(a s + 1)^2 = 1 - u for s
        return [((1.0 - u) ** -0.5 - 1.0) / p for u in us]


# uniforms a RenewalStream takes from its generator at a time
_BUFFER = 128


class RenewalStream:
    """A seeded renewal process: i.i.d. intervals from one distribution.

    The simulation engine owns the calendar; the stream owns sampling
    state and the cumulative draw count.  Uniforms come from the generator
    in blocks of ``_BUFFER`` (``rng.random(_BUFFER)``), which for numpy's
    generators yields the same values, in the same order, as that many
    scalar ``rng.random()`` calls.  Each block becomes intervals through
    one ``dist.quantiles`` call, whose per-value formula is the scalar one
    (a numpy log1p or power may differ in the last bit), so the intervals
    equal ``dist.quantile(rng.random())`` draw for draw.  ``draw`` is the
    only way out of a stream: ``count`` is the number of intervals handed
    out, while the generator may have run up to ``_BUFFER - 1`` uniforms
    ahead.
    """

    __slots__ = ("dist", "rng", "count", "_intervals")

    def __init__(self, dist: DistributionSpec, rng: np.random.Generator):
        self.dist = dist
        self.rng = rng
        self.count = 0
        self._intervals = iter(())

    def draw(self) -> float:
        try:
            x = next(self._intervals)
        except StopIteration:
            self._intervals = iter(self.dist.quantiles(self.rng.random(_BUFFER).tolist()))
            x = next(self._intervals)
        self.count += 1
        return x


def make_streams(spec, master_seed: int):
    """Per-flow arrival and per-class service streams for ``spec``.

    Sub-generators are spawned deterministically from the master seed in a
    fixed order (arrivals by flow id, then services by class id), so equal
    seeds reproduce identical sample paths bit for bit and distinct streams
    are statistically independent.
    """
    root = np.random.SeedSequence(master_seed)
    children = root.spawn(spec.num_flows + spec.num_classes)
    arrivals = [
        RenewalStream(spec.arrival_dist[f], np.random.default_rng(children[f]))
        for f in range(spec.num_flows)
    ]
    services = [
        RenewalStream(
            spec.service_dist[k],
            np.random.default_rng(children[spec.num_flows + k]),
        )
        for k in range(spec.num_classes)
    ]
    return arrivals, services
