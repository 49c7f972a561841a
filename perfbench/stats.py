"""Summary statistics for benchmark timings.

A timing is reported as its median and as the highest percentile of a fixed
ladder that still has at least ``MIN_BEYOND`` samples above it, together
with the sample count.

A pass of a workload is timed per operation. ``pass_estimate`` gives the
seconds of one pass from each kind of operation's mean duration and its
count in a pass, so that a run's last pass, cut short when the run's time
is up, counts too.
"""

from __future__ import annotations

import math

PERCENTILE_LADDER = (50, 90, 95, 97, 99, 99.9)
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest-rank index of the p-th percentile among n samples."""
    return max(1, math.ceil(p * n / 100))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above
    it; None when even the median has fewer."""
    usable = [p for p in PERCENTILE_LADDER if n - rank(p, n) >= MIN_BEYOND]
    return max(usable) if usable else None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(p, len(ordered)) - 1]


def percentile_label(p: float) -> str:
    return f"p{p:g}".replace(".", "_")


def pass_estimate(ops_per_pass: list[dict[str, list[float]]], kinds=None) -> float:
    """Seconds per pass: for each kind of operation (all kinds when ``kinds``
    is None), its count in a pass times its mean duration over every pass.
    The first pass is complete and gives the counts; a later one may have
    been cut short, and the operations it did run count too."""
    first = ops_per_pass[0]
    total = 0.0
    for kind in first if kinds is None else kinds:
        durations = [d for ops in ops_per_pass for d in ops.get(kind, ())]
        total += len(first[kind]) * math.fsum(durations) / len(durations)
    return total
