"""Small numeric helpers for the benchmark harness."""

import statistics


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    return statistics.median(values)


def cov(values):
    """Coefficient of variation: population standard deviation over mean.

    Zero for a single observation or a zero mean.
    """
    vals = list(values)
    if len(vals) < 2:
        return 0.0
    mean = statistics.fmean(vals)
    if mean == 0:
        return 0.0
    return statistics.pstdev(vals) / mean


def nodes_per_second(nodes, solve_ms):
    """Search throughput; guards against a zero-duration measurement."""
    return nodes / max(solve_ms / 1e3, 1e-9)

