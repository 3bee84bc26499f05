import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qnet import distributions
from qnet.distributions import (
    _BUFFER,
    DistributionSpec,
    RenewalStream,
    Tape,
    make_streams,
    make_tapes,
)
from qnet.network import switch_example_spec, tandem_spec


def test_pareto_quantile_at_zero():
    assert DistributionSpec.pareto_paper(0.6).quantile(0.0) == 0.0


def test_pareto_quantile_at_three_quarters():
    # survival 1/4 at s solving (0.6 s + 1)^2 = 4, i.e. s = 1/0.6
    d = DistributionSpec.pareto_paper(0.6)
    assert d.quantile(0.75) == pytest.approx(1.0 / 0.6, abs=1e-12)


def test_pareto_survival_matches_quantile():
    d = DistributionSpec.pareto_paper(0.6)
    for u in (0.1, 0.5, 0.9, 0.999):
        s = d.quantile(u)
        assert d.survival(s) == pytest.approx(1.0 - u, rel=1e-12)


def test_pareto_mean_by_quadrature():
    # mean = integral of the survival function
    from scipy.integrate import quad

    d = DistributionSpec.pareto_paper(0.6)
    val, err = quad(d.survival, 0.0, np.inf)
    assert val == pytest.approx(d.mean, abs=1e-8)
    assert d.mean == pytest.approx(1.0 / 0.6)


def test_pareto_empirical_mean_one_percent():
    d = DistributionSpec.pareto_paper(0.6)
    rng = np.random.default_rng(12345)
    u = rng.random(1_000_000)
    xs = ((1.0 - u) ** -0.5 - 1.0) / 0.6  # same inverse CDF, vectorized
    assert abs(xs.mean() - d.mean) / d.mean < 0.01
    # spot-check that the library path agrees with the vectorized form
    rng2 = np.random.default_rng(12345)
    assert d.quantile(rng2.random()) == pytest.approx(((1.0 - u[0]) ** -0.5 - 1.0) / 0.6)


def test_exponential_quantile_and_mean():
    d = DistributionSpec.exponential(2.0)
    assert d.quantile(0.0) == 0.0
    assert d.quantile(1.0 - math.exp(-2.0)) == pytest.approx(1.0, rel=1e-12)
    assert d.mean == 0.5


def test_deterministic():
    d = DistributionSpec.deterministic(3.5)
    assert d.quantile(0.0) == 3.5
    assert d.quantile(0.99) == 3.5
    assert d.mean == 3.5
    assert not d.unbounded_support


def test_unbounded_support_flags():
    assert DistributionSpec.exponential(1.0).unbounded_support
    assert DistributionSpec.pareto_paper(1.0).unbounded_support


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DistributionSpec("weibull", 1.0)


@given(st.floats(0.0, 0.999999), st.floats(0.0, 0.999999))
def test_quantile_monotone(u1, u2):
    lo, hi = min(u1, u2), max(u1, u2)
    for d in (DistributionSpec.exponential(0.7), DistributionSpec.pareto_paper(0.6)):
        assert d.quantile(lo) <= d.quantile(hi)


@pytest.mark.parametrize(
    "dist",
    [
        DistributionSpec.exponential(0.8),
        DistributionSpec.pareto_paper(0.6),
        DistributionSpec.deterministic(1.25),
    ],
    ids=["exponential", "pareto_paper", "deterministic"],
)
def test_renewal_slln_one_percent(dist):
    # count(t)/t -> 1/mean within 1% by t = 1e5 * mean, fixed seed
    stream = RenewalStream(Tape(dist, np.random.default_rng(99), keep=False))
    target_t = 1e5 * dist.mean
    t = 0.0
    while t < target_t:
        t += stream.draw()
    assert abs(stream.count / t - 1.0 / dist.mean) * dist.mean < 0.01


def test_make_streams_deterministic():
    spec = switch_example_spec()
    a1, s1 = make_streams(spec, 2024)
    a2, s2 = make_streams(spec, 2024)
    for x, y in zip(a1 + s1, a2 + s2):
        assert [x.draw() for _ in range(1000)] == [y.draw() for _ in range(1000)]


def test_make_streams_shape():
    spec = switch_example_spec()
    arrivals, services = make_streams(spec, 0)
    assert len(arrivals) == 3
    assert len(services) == 8


def test_make_streams_independence_smoke():
    spec = switch_example_spec()
    arrivals, _ = make_streams(spec, 7)
    n = 100_000
    xs = np.array([arrivals[0].draw() for _ in range(n)])
    ys = np.array([arrivals[1].draw() for _ in range(n)])
    # heavy tails: correlate ranks rather than values
    corr = np.corrcoef(np.argsort(np.argsort(xs)), np.argsort(np.argsort(ys)))[0, 1]
    assert abs(corr) < 0.01


def test_different_seeds_differ():
    spec = switch_example_spec()
    a1, _ = make_streams(spec, 1)
    a2, _ = make_streams(spec, 2)
    assert a1[0].draw() != a2[0].draw()


LAWS = [
    DistributionSpec.exponential(0.8),
    DistributionSpec.pareto_paper(0.6),
    DistributionSpec.deterministic(1.25),
    DistributionSpec.exponential(0.0),
    DistributionSpec.pareto_paper(0.0),
    DistributionSpec.deterministic(0.0),
]
LAW_IDS = [
    "exponential", "pareto_paper", "deterministic",
    "exponential_rate0", "pareto_paper_rate0", "deterministic_zero",
]


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


@pytest.mark.parametrize("dist", LAWS, ids=LAW_IDS)
def test_quantiles_equal_scalar_quantiles(dist):
    # the block sampler applies the scalar formula: equal bit for bit,
    # the sign of zero and inf at rate 0 included
    us = [0.0, 1e-300, 0.25, 0.5, 1.0 - 2.0**-53] + np.random.default_rng(7).random(200).tolist()
    got = dist.quantiles(us)
    assert _bits(got) == _bits([dist.quantile(u) for u in us])
    if dist.param == 0.0 and dist.unbounded_support:
        assert got == [math.inf] * len(us)
    assert dist.quantiles([]) == []


@pytest.mark.parametrize("dist", LAWS[:4], ids=LAW_IDS[:4])
def test_buffered_draws_equal_scalar_draws(dist):
    # across more than three refills of the uniform buffer, a stream hands
    # out exactly the intervals of one scalar uniform per draw
    n = 3 * _BUFFER + 17
    for seed in (0, 1, 2024):
        stream = RenewalStream(Tape(dist, np.random.default_rng(seed), keep=False))
        twin = np.random.default_rng(seed)
        for i in range(n):
            assert stream.draw() == dist.quantile(twin.random())
            assert stream.count == i + 1


@pytest.mark.parametrize("dist", LAWS[:4], ids=LAW_IDS[:4])
def test_readers_of_one_tape_draw_the_scalar_intervals(dist):
    # two streams read one tape at different paces, each running ahead of
    # the other in turn, over more than three blocks: both hand out exactly
    # the intervals of one scalar uniform per draw, and the tape computes
    # each block once
    n = 3 * _BUFFER + 17
    for seed in (0, 1, 2024):
        tape = Tape(dist, np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        want = [dist.quantile(twin.random()) for _ in range(n)]
        fast, slow = RenewalStream(tape), RenewalStream(tape)
        got_fast, got_slow = [], []
        for i in range(n):
            got_fast.append(fast.draw())
            if i % 3 == 0:
                got_slow.append(slow.draw())
        got_slow += [slow.draw() for _ in range(n - len(got_slow))]
        assert _bits(got_fast) == _bits(got_slow) == _bits(want)
        assert fast.count == slow.count == n
        assert len(tape.blocks) == -(-n // _BUFFER)


@pytest.mark.parametrize("dist", LAWS[:4], ids=LAW_IDS[:4])
def test_tape_stores_at_most_its_cap(dist, monkeypatch):
    # with a cap of 2 blocks, a reader that starts before another reads
    # past the cap, one that starts before but reads after, and one that
    # starts after all draw the intervals of a private tape, and the
    # tape keeps its 2 blocks
    monkeypatch.setattr(distributions, "_MAX_BLOCKS", 2)
    n = 5 * _BUFFER + 17
    for seed in (0, 2024):
        private = RenewalStream(Tape(dist, np.random.default_rng(seed), keep=False))
        want = _bits([private.draw() for _ in range(n)])
        tape = Tape(dist, np.random.default_rng(seed))
        first, waiting = RenewalStream(tape), RenewalStream(tape)
        got_first = [first.draw() for _ in range(3 * _BUFFER)]
        late = RenewalStream(tape)
        got_late = [late.draw() for _ in range(n)]
        got_first += [first.draw() for _ in range(n - len(got_first))]
        got_waiting = [waiting.draw() for _ in range(n)]
        assert _bits(got_first) == _bits(got_late) == _bits(got_waiting) == want
        assert len(tape.blocks) == 2


def test_private_tape_keeps_no_interval():
    dist = DistributionSpec.exponential(0.8)
    stream = RenewalStream(Tape(dist, np.random.default_rng(5), keep=False))
    for _ in range(2 * _BUFFER + 1):
        stream.draw()
    assert stream.tape.blocks == []
    _, services = make_streams(switch_example_spec(), 3)
    assert all(s.tape.blocks == [] for s in services)


def test_tapes_give_the_streams_of_their_seed():
    spec = switch_example_spec()
    tapes = make_tapes(spec, 2024)
    a1, s1 = make_streams(spec, 2024, tapes)
    a2, s2 = make_streams(spec, 2024)
    for x, y in zip(a1 + s1, a2 + s2):
        assert _bits([x.draw() for _ in range(300)]) == _bits([y.draw() for _ in range(300)])


def test_mismatched_tapes_rejected():
    spec = switch_example_spec()
    with pytest.raises(ValueError, match="tapes of seed 3 read by a run of seed 4"):
        make_streams(spec, 4, make_tapes(spec, 3))
    for other in (tandem_spec(1.0, 0.8, 0.6), switch_example_spec()):
        with pytest.raises(ValueError, match="other arrival or service laws"):
            make_streams(tandem_spec(1.0, 0.8, 0.5), 3, make_tapes(other, 3))
