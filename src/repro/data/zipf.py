"""Zipf-distributed rank sampling.

Rank ``k`` (1-based) is drawn with probability proportional to ``1 / k**θ``.
``θ = 0`` degenerates to the uniform distribution; larger θ skews accesses
toward the hottest ranks, as in the paper's Fig. 3 sweep.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

import numpy as np

__all__ = ["ZipfGenerator"]


@lru_cache(maxsize=256)
def _zipf_cdf(n: int, theta: float) -> np.ndarray:
    """The normalised Zipf CDF over ranks ``1..n``, shared across instances.

    A sweep builds one :class:`ZipfGenerator` per host per run, and every
    host of a run repeats the same ``(n, theta)`` — recomputing the
    harmonic normalisation each time was O(hosts x n) of pure waste.  The
    cached array is marked read-only so no sampler can corrupt a sibling's
    table.
    """
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


@lru_cache(maxsize=256)
def _zipf_knots(n: int, theta: float) -> list[float]:
    """:func:`_zipf_cdf` as floats for ``bisect``, one list per ``(n, theta)``."""
    return _zipf_cdf(n, theta).tolist()


class ZipfGenerator:
    """Inverse-CDF sampler over ranks ``0 .. n-1``."""

    def __init__(self, rng: np.random.Generator, n: int, theta: float):
        if n < 1:
            raise ValueError("need at least one rank")
        if not (theta >= 0):  # not `theta < 0`: that is False for NaN
            raise ValueError(f"theta must be >= 0, got {theta}")
        self.rng = rng
        self.n = int(n)
        self.theta = float(theta)
        self._cdf = _zipf_cdf(self.n, self.theta)
        self._knots = _zipf_knots(self.n, self.theta)

    def probability(self, rank: int) -> float:
        """P(rank), 0-based."""
        if not 0 <= rank < self.n:
            raise IndexError(rank)
        previous = self._cdf[rank - 1] if rank > 0 else 0.0
        return float(self._cdf[rank] - previous)

    def sample(self) -> int:
        """Draw one 0-based rank."""
        return bisect_right(self._knots, self.rng.random())

    def sample_many(self, count: int) -> np.ndarray:
        """Draw ``count`` 0-based ranks."""
        return np.searchsorted(self._cdf, self.rng.random(count), side="right")
