"""Order statistics shared by the run and compare commands."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def tail(values) -> tuple:
    """(value, percentile, samples) of the highest percentile with
    ``TAIL_BEYOND`` samples beyond it.

    The value is the (TAIL_BEYOND + 1)-th largest sample, so exactly
    TAIL_BEYOND samples lie above it.  Needs more than TAIL_BEYOND samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
