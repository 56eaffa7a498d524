"""Random waypoint mobility (Broch et al., MobiCom'98; the paper's ref [31]).

A host repeatedly picks a uniform random destination in the service area,
moves toward it at a speed drawn uniformly from ``[v_min, v_max]``, then
pauses (the paper uses a one-second pause time).
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.geometry import Rectangle, euclidean
from repro.mobility.trajectory import PiecewiseLinearTrajectory, Segment
from repro.sim.random import uniform

__all__ = ["RandomWaypointTrajectory"]

_ZERO = np.zeros(2)


class RandomWaypointTrajectory(PiecewiseLinearTrajectory):
    """A lazily generated random-waypoint path."""

    def __init__(
        self,
        rng: np.random.Generator,
        area: Rectangle,
        v_min: float,
        v_max: float,
        pause_time: float = 1.0,
        start_time: float = 0.0,
        start_point: np.ndarray = None,
    ):
        if not 0 < v_min <= v_max < math.inf:  # NaN fails every comparison
            raise ValueError(f"need 0 < v_min <= v_max < inf, got {v_min}, {v_max}")
        if not 0 <= pause_time < math.inf:
            raise ValueError(f"pause_time must be >= 0 and finite, got {pause_time}")
        self._rng = rng
        self._area = area
        self._v_min = float(v_min)
        self._v_max = float(v_max)
        self._pause_time = float(pause_time)
        self._pausing = False
        if start_point is None:
            start_point = area.random_point(rng)
        elif not area.contains(start_point):
            raise ValueError("start_point outside the service area")
        super().__init__(start_time, start_point)

    def _next_segment(self, start: float, origin: np.ndarray) -> Segment:
        if self._pausing and self._pause_time > 0:
            self._pausing = False
            return Segment(start, start + self._pause_time, origin, _ZERO)
        self._pausing = self._pause_time > 0
        while True:
            target = self._area.random_point(self._rng)
            distance = euclidean(origin, target)
            if distance > 1e-9:
                break
        speed = uniform(self._rng, self._v_min, self._v_max)
        travel_time = distance / speed
        velocity = (target - origin) / travel_time
        return Segment(start, start + travel_time, origin, velocity)
