"""Order statistics used by the benchmark report."""
from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples that must lie above a reported percentile


def percentile(samples, q: float) -> float:
    """Nearest-rank q-th percentile of ``samples``.

    Refuses (ValueError) when fewer than MIN_BEYOND samples lie beyond
    the rank, because such a tail percentile is set by a handful of
    values and does not repeat from run to run.
    """
    if not 0.0 < q < 100.0:
        raise ValueError("q must lie strictly between 0 and 100")
    xs = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    beyond = len(xs) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return xs[rank - 1]


def min_samples(q: float) -> int:
    """Smallest sample count for which percentile(., q) is reported."""
    n = 1
    while n - max(1, math.ceil(q / 100.0 * n)) < MIN_BEYOND:
        n += 1
    return n


def spread(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf
