"""Reference point group mobility (Hong et al.; the paper's ref [30]).

Each motion group has a *reference point* that follows the random waypoint
model.  A member's position is the reference position plus a bounded random
offset that drifts smoothly: every few seconds the member picks a new offset
uniformly in a disc of radius ``span`` and glides linearly toward it.  With a
span of zero the member coincides with the reference, so ``GroupSize = 1``
degenerates to an individual random waypoint model exactly as in Section
VI-C of the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mobility.geometry import random_point_in_disc
from repro.mobility.trajectory import (
    PiecewiseLinearTrajectory,
    Segment,
    Trajectory,
)
from repro.sim.random import uniform

__all__ = ["GroupMemberTrajectory"]


class _OffsetTrajectory(PiecewiseLinearTrajectory):
    """The member's drift around the group reference point."""

    def __init__(
        self,
        rng: np.random.Generator,
        span: float,
        leg_min: float,
        leg_max: float,
        start_time: float,
    ):
        self._rng = rng
        self._span = float(span)
        self._leg_min = float(leg_min)
        self._leg_max = float(leg_max)
        start = np.array(random_point_in_disc(rng, self._span))
        super().__init__(start_time, start)

    def _next_segment(self, start: float, origin: np.ndarray) -> Segment:
        target = np.array(random_point_in_disc(self._rng, self._span))
        duration = uniform(self._rng, self._leg_min, self._leg_max)
        velocity = (target - origin) / duration
        return Segment(start, start + duration, origin, velocity)


class GroupMemberTrajectory(Trajectory):
    """reference-point position + smooth bounded offset."""

    def __init__(
        self,
        reference: Trajectory,
        rng: np.random.Generator,
        span: float,
        leg_min: float = 5.0,
        leg_max: float = 15.0,
        start_time: float = 0.0,
    ):
        if not 0 <= span < math.inf:  # NaN fails every comparison
            raise ValueError(f"span must be >= 0 and finite, got {span}")
        if not 0 < leg_min <= leg_max < math.inf:
            raise ValueError(
                f"need 0 < leg_min <= leg_max < inf, got {leg_min}, {leg_max}"
            )
        self.reference = reference
        self.span = float(span)
        if span == 0:
            self._offset = None
        else:
            self._offset = _OffsetTrajectory(rng, span, leg_min, leg_max, start_time)

    def position(self, t: float) -> np.ndarray:
        base = self.reference.position(t)
        if self._offset is None:
            return base
        return base + self._offset.position(t)
