"""Lazy piecewise-linear trajectories.

A trajectory is a function ``position(t)``.  Concrete models extend the
segment list on demand: querying a time beyond the last generated segment
triggers generation of further segments, so a simulation only ever pays for
the parts of a path it actually observes.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List

import numpy as np

__all__ = ["PiecewiseLinearTrajectory", "Segment", "StationaryTrajectory", "Trajectory"]


class Segment:
    """Linear motion from ``origin`` at time ``start`` with ``velocity``
    until time ``end`` (``end`` may be ``inf`` for a final segment).

    A plain slotted class: trajectories build one per leg, and a frozen
    dataclass would pay an ``object.__setattr__`` per field each time.
    """

    __slots__ = ("start", "end", "origin", "velocity")

    def __init__(
        self, start: float, end: float, origin: np.ndarray, velocity: np.ndarray
    ) -> None:
        self.start = start
        self.end = end
        self.origin = origin
        self.velocity = velocity

    def position(self, t: float) -> np.ndarray:
        """Position at time ``t`` (clamped into [start, end])."""
        dt = min(max(t, self.start), self.end) - self.start
        return self.origin + self.velocity * dt

    @property
    def endpoint(self) -> np.ndarray:
        return self.position(self.end)


class Trajectory:
    """Interface: a time-parameterised path in the plane."""

    def position(self, t: float) -> np.ndarray:
        raise NotImplementedError


class StationaryTrajectory(Trajectory):
    """A host that never moves (used for tests and degenerate setups)."""

    def __init__(self, point):
        self._point = np.asarray(point, dtype=float)
        if not np.isfinite(self._point).all():
            raise ValueError(f"point must be finite, got {point}")

    def position(self, t: float) -> np.ndarray:
        return self._point


class PiecewiseLinearTrajectory(Trajectory):
    """Base class for lazily generated piecewise-linear paths.

    Subclasses implement :meth:`_next_segment`, which must return a segment
    starting exactly where and when the previous one ended.
    """

    def __init__(self, start_time: float, start_point: np.ndarray):
        self._segments: List[Segment] = []
        self._starts: List[float] = []
        self._end_time = float(start_time)
        self._end_point = np.asarray(start_point, dtype=float)

    # -- subclass contract ---------------------------------------------------

    def _next_segment(self, start: float, origin: np.ndarray) -> Segment:
        """Produce the segment beginning at (start, origin)."""
        raise NotImplementedError

    # -- public API ----------------------------------------------------------

    def position(self, t: float) -> np.ndarray:
        return self.active_segment(t).position(t)

    def active_segment(self, t: float) -> Segment:
        """The segment covering time ``t``, generating it on demand.

        Exposed so :class:`~repro.mobility.field.MobilityField` can cache
        segment endpoints in flat arrays and evaluate whole populations
        with vectorised arithmetic instead of per-host calls.
        """
        if self._starts and t < self._starts[0]:
            raise ValueError(
                f"query at t={t} precedes trajectory start {self._starts[0]}"
            )
        self._extend_to(t)
        index = bisect_right(self._starts, t) - 1
        if index < 0:
            # t is before the first generated segment but after start_time:
            # only possible when no segment exists yet (handled by extend).
            index = 0
        return self._segments[index]

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    # -- internals -----------------------------------------------------------

    def _extend_to(self, t: float) -> None:
        while self._end_time <= t:
            segment = self._next_segment(self._end_time, self._end_point)
            if segment.start != self._end_time:
                raise ValueError("segment does not start at the trajectory end")
            if segment.end <= segment.start:
                raise ValueError("segment must advance time")
            self._segments.append(segment)
            self._starts.append(segment.start)
            self._end_time = segment.end
            self._end_point = segment.endpoint
