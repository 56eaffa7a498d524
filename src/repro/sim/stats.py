"""Incremental statistics.

The COCA timeout adaptation needs a running mean and standard deviation of
peer-search round-trip times, computed incrementally (the paper cites Knuth
TAOCP vol. 2 for this).  :class:`WelfordAccumulator` is that algorithm; it is
also the backbone of every metric the harness reports.
"""

from __future__ import annotations

import math

__all__ = ["WelfordAccumulator"]


class WelfordAccumulator:
    """Numerically stable running mean / variance (Welford's method)."""

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        """Population variance; 0.0 until two samples exist."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        return self.mean * self.count

    def __repr__(self) -> str:
        return (
            f"WelfordAccumulator(count={self.count}, mean={self.mean:.6g}, "
            f"stddev={self.stddev:.6g})"
        )

