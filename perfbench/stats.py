"""Order statistics for job timings.

A percentile is reported only when at least ten samples lie beyond it,
so p90 needs 100 samples and p50 needs 20; fewer is refused rather than
reported from a handful of jobs.
"""

import math
import statistics

MIN_TAIL = 10


def min_samples(q: float) -> int:
    """Smallest sample count that leaves MIN_TAIL samples above quantile q."""
    return math.ceil(round(MIN_TAIL / (1 - q), 9))


def percentile(samples, q: float) -> float:
    """The q-quantile (0 < q < 1) of the samples, by the exclusive method of
    `statistics.quantiles`; raises ValueError below `min_samples(q)`."""
    if not 0 < q < 1:
        raise ValueError(f"quantile {q} outside (0, 1)")
    need = min_samples(q)
    if len(samples) < need:
        raise ValueError(f"p{round(q * 100)} needs at least {need} samples, "
                         f"got {len(samples)}")
    cuts = statistics.quantiles(samples, n=100)
    return cuts[round(q * 100) - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median: the run-to-run spread a bound is compared against."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
