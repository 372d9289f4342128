"""Summary statistics for benchmark samples."""

from __future__ import annotations

import statistics


def tail_percentile(samples, min_beyond: int = 10):
    """Highest percentile that still has ``min_beyond`` samples above it.

    With the samples sorted ascending, the value at 1-based rank ``k`` has
    ``N - k`` samples beyond it, so the highest usable rank is
    ``N - min_beyond``.  Returns ``(percent, value)``, or ``None`` when there
    are not more than ``min_beyond`` samples.
    """
    ordered = sorted(samples)
    rank = len(ordered) - min_beyond
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def describe_timing(samples, unit: str = "s") -> str:
    """Median, tail percentile and sample count, as one line of text."""
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]:.4g} {tail[1]:.4f} {unit}" if tail else "no tail percentile below 11 samples"
    return f"median of {len(samples)}; {tail_text}"
