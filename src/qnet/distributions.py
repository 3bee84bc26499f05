"""Interarrival/service time laws and seeded renewal streams.

All sampling is inverse-CDF on a single uniform draw, so samples are a
monotone function of the underlying uniform and replications are exactly
reproducible from a master seed.  ``DistributionSpec.quantiles(us)`` holds
the one scalar formula per law (``-log1p(-u)/rate``, ``((1-u)^-1/2 - 1)/rate``,
the point mass, ``inf`` at rate 0) as a list comprehension over Python
floats; ``quantile(u)`` is its range check plus ``quantiles([u])[0]``.
A ``Tape`` turns its generator's uniforms into intervals a block at a time,
with one ``quantiles`` call per block, and ``RenewalStream(tape)`` reads
the intervals of one tape in order; that changes no sample (see ``Tape``).
A seed draws the same intervals at every threshold scale n, so the cells
of a sweep that share a seed share its ``SeedTapes``: the first cell
computes the intervals and the others read them.
"""
from __future__ import annotations

import itertools
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


# uniforms a Tape takes from its generator at a time
_BUFFER = 128
# blocks a kept Tape stores at most, about 2 MB: over 10 times the 47
# blocks of Pareto arrivals that a switch cell reads at horizon 1e4
_MAX_BLOCKS = 512


class Tape:
    """The intervals of one renewal stream, computed once for all readers.

    Block i of a tape is ``dist.quantiles(rng.random(_BUFFER).tolist())``
    on the i-th block of ``_BUFFER`` uniforms of ``rng``.  For numpy's
    generators a block holds the same uniforms, in the same order, as that
    many scalar ``rng.random()`` calls, and ``quantiles`` applies the
    scalar formula to each (a numpy log1p or power may differ in the last
    bit), so the intervals of a tape equal ``dist.quantile(rng.random())``
    draw for draw.  ``blocks`` holds the blocks computed so far, as the
    lists ``quantiles`` returns: about 32 bytes per interval, held as long
    as the tape is, and at most ``_MAX_BLOCKS`` of them.  No reader asks
    a tape that keeps them for a block past its last, so its generator
    stops there; a reader that reads on computes the rest on a generator
    of its own, set to a copy of that state, and stores nothing.
    A tape built with ``keep=False`` holds none and serves a single
    reader, which gets each block as it is computed.  Its readers are the
    streams built as ``RenewalStream(tape)``, each on its own
    ``intervals()``.
    """

    __slots__ = ("dist", "rng", "keep", "blocks")

    def __init__(self, dist: DistributionSpec, rng: np.random.Generator, *, keep: bool = True):
        self.dist = dist
        self.rng = rng
        self.keep = keep
        self.blocks = []

    def block(self, i: int) -> list:
        """Block i, computed from the generator if no reader has asked for
        it yet.  Readers ask for 0, 1, 2, ... in turn, and of a tape that
        keeps its blocks only for i below ``_MAX_BLOCKS``, so on such a
        tape i is never past the end of ``blocks``."""
        blocks = self.blocks
        if i < len(blocks):
            return blocks[i]
        block = self.dist.quantiles(self.rng.random(_BUFFER).tolist())
        if self.keep:
            blocks.append(block)
        return block

    def intervals(self):
        """The intervals of the tape, from the first, as one C-level
        iterator for one reader: the stored blocks through ``block``, then,
        on a tape that keeps them, the blocks past ``_MAX_BLOCKS`` from the
        reader's own generator."""
        if not self.keep:
            return itertools.chain.from_iterable(map(self.block, itertools.count()))
        return itertools.chain.from_iterable(
            itertools.chain(map(self.block, range(_MAX_BLOCKS)), self._blocks_past_last()))

    def _blocks_past_last(self):
        # starts when the reader is past the last stored block, where the
        # tape's generator has stopped
        bit_generator = type(self.rng.bit_generator)()
        bit_generator.state = self.rng.bit_generator.state
        random, quantiles = np.random.Generator(bit_generator).random, self.dist.quantiles
        while True:
            yield quantiles(random(_BUFFER).tolist())


class RenewalStream:
    """A seeded renewal process: i.i.d. intervals from one distribution.

    The simulation engine owns the calendar; the stream reads the
    intervals of one ``Tape``, from its first, in order, at its own pace,
    and its law is ``tape.dist``.  ``intervals`` is the stream's one
    C-level iterator over the tape.  ``draw()`` hands out its next
    interval and counts it in ``count``; a reader that takes intervals
    with ``next(stream.intervals)`` counts none.  While only ``draw``
    reads it, ``count`` is the stream's position on the tape: the tape may
    have run up to ``_BUFFER - 1`` intervals ahead of it, or any number
    when another reader went first.  A run with invariant checks ``"off"``
    reads ``intervals`` with ``next`` and sets ``count`` to its position
    when it ends or raises (see ``des.Simulation.run``).
    """

    __slots__ = ("tape", "count", "intervals")

    def __init__(self, tape: Tape):
        self.tape = tape
        self.count = 0
        self.intervals = tape.intervals()

    def draw(self) -> float:
        self.count += 1
        return next(self.intervals)


@dataclass(frozen=True)
class SeedTapes:
    """The tapes of every stream of one master seed: one per flow's
    arrivals, then one per class's services."""

    seed: int
    arrivals: tuple
    services: tuple


def make_tapes(spec, master_seed: int, *, keep: bool = True) -> SeedTapes:
    """The arrival and service tapes of ``spec`` under ``master_seed``.

    Sub-generators are spawned deterministically from the master seed in a
    fixed order (arrivals by flow id, then services by class id), so equal
    seeds reproduce identical sample paths bit for bit and distinct streams
    are statistically independent.  With ``keep=False`` each tape serves
    one reader and holds no interval.
    """
    root = np.random.SeedSequence(master_seed)
    children = root.spawn(spec.num_flows + spec.num_classes)
    tapes = [
        Tape(dist, np.random.default_rng(child), keep=keep)
        for dist, child in zip((*spec.arrival_dist, *spec.service_dist), children)
    ]
    return SeedTapes(int(master_seed), tuple(tapes[:spec.num_flows]), tuple(tapes[spec.num_flows:]))


def make_streams(spec, master_seed: int, tapes: SeedTapes = None):
    """Per-flow arrival and per-class service streams for ``spec``.

    The streams read ``tapes``, which must be the tapes of ``master_seed``
    for the laws of ``spec`` (ValueError otherwise), or private tapes of
    that seed built by ``make_tapes(spec, master_seed, keep=False)``.
    This is the one place that checks a run's tapes against its seed and
    laws; each stream is ``RenewalStream(tape)``, of the tape's law.
    """
    if tapes is None:
        tapes = make_tapes(spec, master_seed, keep=False)
    elif tapes.seed != master_seed:
        raise ValueError(f"tapes of seed {tapes.seed} read by a run of seed {master_seed}")
    elif ([t.dist for t in tapes.arrivals], [t.dist for t in tapes.services]) != (
            list(spec.arrival_dist), list(spec.service_dist)):
        raise ValueError("tapes built for other arrival or service laws than the network's")
    arrivals = [RenewalStream(t) for t in tapes.arrivals]
    services = [RenewalStream(t) for t in tapes.services]
    return arrivals, services
