"""Measurement primitives: time series, summaries, percentiles, CDFs.

Experiments record into these during simulation and read the aggregates
afterwards; none of them interact with the event loop.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "percentile",
    "cdf",
    "Summary",
    "TimeSeries",
]


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0..100) via linear interpolation.

    Matches numpy's default ("linear") method, but works on plain lists
    without the numpy import cost in hot loops.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    value = ordered[low] * (1.0 - weight) + ordered[high] * weight
    # Interpolation rounding must never escape the data range (the list
    # is sorted, so ordered[low] <= ordered[high] always holds).
    return min(max(value, ordered[low]), ordered[high])


def cdf(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as a list of ``(value, cumulative_fraction)`` points."""
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


class Summary:
    """Streaming collection of scalar samples with percentile queries."""

    def __init__(self, name: str = ""):
        self.name = name
        self.values: List[float] = []

    def add(self, value: float) -> None:
        self.values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.values.extend(values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        return len(self.values)

    def _require_samples(self) -> None:
        if not self.values:
            raise ValueError(f"summary {self.name!r} is empty")

    @property
    def mean(self) -> float:
        self._require_samples()
        return sum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        self._require_samples()
        return min(self.values)

    @property
    def maximum(self) -> float:
        self._require_samples()
        return max(self.values)

    def percentile(self, p: float) -> float:
        self._require_samples()
        return percentile(self.values, p)

    def cdf(self) -> List[Tuple[float, float]]:
        self._require_samples()
        return cdf(self.values)

    def histogram(self, edges: Sequence[float]) -> List[int]:
        """Counts per bucket for sorted bucket ``edges`` (right-open)."""
        counts = [0] * (len(edges) + 1)
        ordered = sorted(self.values)
        previous = 0
        for i, edge in enumerate(edges):
            position = bisect_right(ordered, edge)
            counts[i] = position - previous
            previous = position
        counts[len(edges)] = len(ordered) - previous
        return counts


class TimeSeries:
    """(time, value) samples recorded in time order."""

    def __init__(self, name: str = ""):
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if not math.isfinite(time):
            raise ValueError(f"time series {self.name!r} needs finite "
                             f"times, got {time!r}")
        if self.times and not time >= self.times[-1]:  # NaN-proof
            raise ValueError(
                f"time series {self.name!r} must be recorded in order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)
