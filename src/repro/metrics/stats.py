"""Statistical helpers: percentiles, CDFs, summaries.

Pure functions over sequences of floats, used by every experiment to
produce the rows and series the paper reports.  No numpy dependency:
the library stays stdlib-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "mean",
    "stddev",
    "percentile",
    "median",
    "cdf_points",
    "ccdf_points",
    "SummaryStats",
    "summarize",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ConfigurationError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (0.0 for a single value)."""
    if not values:
        raise ConfigurationError("stddev of empty sequence")
    if len(values) == 1:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ConfigurationError("percentile of empty sequence")
    if not 0 <= pct <= 100:
        raise ConfigurationError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100 * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    lo, hi = ordered[lower], ordered[upper]
    # Interpolate as lo + w*(hi-lo) and clamp: the two-product form can
    # land one ULP outside [lo, hi] (breaking percentile monotonicity).
    return min(max(lo + weight * (hi - lo), lo), hi)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50)


def cdf_points(values: Iterable[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as ``(value, percent <= value)`` pairs, ascending —
    the paper's "Percent of Trials" axes."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [(v, 100.0 * (i + 1) / n) for i, v in enumerate(ordered)]


def ccdf_points(values: Iterable[float]) -> List[Tuple[float, float]]:
    """Complementary CDF as ``(value, percent > value)`` pairs."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [(v, 100.0 * (n - i - 1) / n) for i, v in enumerate(ordered)]


@dataclass(frozen=True)
class SummaryStats:
    """Summary of one metric across trials."""

    n: int
    mean: float
    std: float
    minimum: float
    p25: float
    p50: float
    p75: float
    p90: float
    p99: float
    maximum: float

    def row(self) -> str:
        """One-line rendering for report tables."""
        return (f"n={self.n} mean={self.mean:.4g} p50={self.p50:.4g} "
                f"p90={self.p90:.4g} p99={self.p99:.4g} max={self.maximum:.4g}")


def summarize(values: Sequence[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` over ``values``."""
    if not values:
        raise ConfigurationError("summarize of empty sequence")
    return SummaryStats(
        n=len(values),
        mean=mean(values),
        std=stddev(values),
        minimum=min(values),
        p25=percentile(values, 25),
        p50=percentile(values, 50),
        p75=percentile(values, 75),
        p90=percentile(values, 90),
        p99=percentile(values, 99),
        maximum=max(values),
    )
