"""Statistics helpers: exact percentiles, means, fairness.

The paper reports tail percentiles (95th/99th/99.9th/99.99th FCT) and
small-timescale fairness (Fig. 9), so these
are implemented once here and reused by every experiment.  Percentiles use
the nearest-rank method on the sorted sample — exact, deterministic, and
meaningful even for tails thinner than the sample supports (they clamp to
the maximum, the honest answer for "99.99th of 2 000 samples").
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"p must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean."""
    if not values:
        raise ValueError("mean of an empty sample")
    return sum(values) / len(values)


def summarize_tail(values: Sequence[float]) -> dict:
    """The paper's FCT row: mean plus the four tail percentiles."""
    return {
        "mean": mean(values),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
        "p99.9": percentile(values, 99.9),
        "p99.99": percentile(values, 99.99),
    }


def jain_fairness(rates: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly fair, 1/n = one flow hogs."""
    if not rates:
        raise ValueError("fairness of an empty sample")
    total = sum(rates)
    squares = sum(rate * rate for rate in rates)
    if squares == 0:
        return 1.0
    return (total * total) / (len(rates) * squares)
