"""Plane geometry helpers for the mobility models."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sim.random import uniform

__all__ = ["Rectangle", "euclidean"]


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned service area ``[0, width] x [0, height]``."""

    width: float
    height: float

    def __post_init__(self):
        for name in ("width", "height"):
            side = getattr(self, name)
            if not 0 < side < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be > 0 and finite, got {side}")

    def contains(self, point: np.ndarray, tolerance: float = 1e-9) -> bool:
        """Whether ``point`` lies inside the area (inclusive bounds)."""
        x, y = float(point[0]), float(point[1])
        return (
            -tolerance <= x <= self.width + tolerance
            and -tolerance <= y <= self.height + tolerance
        )

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform random point in the area."""
        return np.array([uniform(rng, 0.0, self.width), uniform(rng, 0.0, self.height)])

    def clamp(self, point: np.ndarray) -> np.ndarray:
        """Project ``point`` onto the area."""
        return np.array(
            [
                min(max(float(point[0]), 0.0), self.width),
                min(max(float(point[1]), 0.0), self.height),
            ]
        )

    @property
    def center(self) -> np.ndarray:
        return np.array([self.width / 2.0, self.height / 2.0])

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two points."""
    return math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))


def random_point_in_disc(
    rng: np.random.Generator, radius: float
) -> Tuple[float, float]:
    """A uniform random point in a disc of the given radius around (0, 0)."""
    angle = uniform(rng, 0.0, 2.0 * math.pi)
    # sqrt for area-uniform sampling.
    r = radius * math.sqrt(uniform(rng, 0.0, 1.0))
    return (r * math.cos(angle), r * math.sin(angle))
