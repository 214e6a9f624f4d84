"""Order statistics for the benchmark's reports."""
from __future__ import annotations

import statistics


def op_median(results) -> float:
    """Median seconds of the (seconds, passed) operations that passed; of
    all of them when none passed."""
    passed = [s for s, ok in results if ok]
    return statistics.median(passed or [s for s, _ in results])


def percentile(values, pct: int) -> float:
    """Nearest rank: the ceil(pct * n / 100)-th smallest sample (the
    smallest for pct 0)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    return xs[max(1, -(-pct * len(xs) // 100)) - 1]


def tail(values, beyond: int = 10) -> tuple[int, float, int]:
    """The highest whole percentile with at least `beyond` samples above it.

    Returns (percentile, value, n) by the nearest-rank definition: the
    p-th percentile is the ceil(p * n / 100)-th smallest sample. With
    n <= beyond no percentile qualifies and the result is (0, min, n).
    """
    n = len(values)
    pct = 100 * (n - beyond) // n if n > beyond else 0
    return pct, percentile(values, pct), n


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
