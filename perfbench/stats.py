"""Reductions from the probe's raw samples to reported metrics."""

import math
import statistics

# A percentile is reported as measured only when at least this many
# samples lie beyond it; fewer cannot locate a tail.
MIN_BEYOND = 10


def percentile(samples, p):
    """Linearly interpolated p-th percentile (numpy's default), so the
    median of an even count is the mean of the middle two: two ops of
    nearly equal cost swapping ranks do not make the median jump."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def beyond(n, p):
    """How many of n sorted samples lie above the p-th percentile: all
    after the lower of the two it interpolates between."""
    if n == 0:
        return 0
    return n - 1 - math.floor((n - 1) * p / 100.0)


def eligible(n, p):
    return beyond(n, p) >= MIN_BEYOND


def latency(samples, p):
    """(value, eligible) for the p-th percentile of per-op latencies.
    When too few samples lie beyond the percentile, the value is the
    largest sample: an upper bound on that percentile, never a guess
    below it."""
    if eligible(len(samples), p):
        return percentile(samples, p), True
    return max(samples), False


def fail_ratio(attempted, failed):
    if attempted < 1:
        raise ValueError("fail_ratio needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def median(samples):
    return statistics.median(samples)
