"""The snapshot-quantisation error bound used by the simulator.

DESIGN.md claims that quantising snapshot times to ``resolution`` bounds
the position error by ``v_max * resolution``; these tests hold the code to
that claim.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import MobilityField, RandomWaypointTrajectory, Rectangle

AREA = Rectangle(500.0, 500.0)
V_MAX = 5.0
RESOLUTION = 0.1


def build_fields(seed, n=5):
    # Each trajectory gets its own seeded generator: segments are generated
    # lazily up to the queried time, so a generator *shared* across the
    # population would interleave differently in the two fields whenever a
    # segment boundary falls inside the quantisation gap, desynchronising
    # every later trajectory.
    def trajectories():
        streams = np.random.default_rng(seed).integers(0, 2**32, size=n)
        return [
            RandomWaypointTrajectory(
                np.random.default_rng(stream), AREA, 1.0, V_MAX
            )
            for stream in streams
        ]

    exact = MobilityField(trajectories(), resolution=0.0)
    quantised = MobilityField(trajectories(), resolution=RESOLUTION)
    return exact, quantised


@given(st.floats(min_value=0.0, max_value=500.0), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_quantised_positions_within_speed_bound(t, seed):
    exact, quantised = build_fields(seed)
    error = np.linalg.norm(exact.positions(t) - quantised.positions(t), axis=1)
    assert (error <= V_MAX * RESOLUTION + 1e-9).all()


def test_quantisation_bucket_shares_snapshot():
    _, quantised = build_fields(3)
    a = quantised.positions(10.01)
    refreshes = quantised.snapshot_refreshes
    reuses = quantised.snapshot_reuses
    b = quantised.positions(10.09)
    assert a is b  # same 0.1 s bucket: cached, no refresh
    assert quantised.snapshot_refreshes == refreshes
    assert quantised.snapshot_reuses == reuses + 1
    values_before = a.copy()
    quantised.positions(10.11)
    # Next bucket: the preallocated buffer is refilled in place.
    assert quantised.snapshot_refreshes == refreshes + 1
    assert (quantised.positions(10.11) != values_before).any()


def test_zero_resolution_is_exact():
    exact, _ = build_fields(4)
    exact.positions(1.23456)
    refreshes = exact.snapshot_refreshes
    exact.positions(1.23457)
    assert exact.snapshot_refreshes == refreshes + 1  # every instant is fresh


def test_negative_resolution_rejected():
    import pytest

    with pytest.raises(ValueError):
        MobilityField(
            [RandomWaypointTrajectory(np.random.default_rng(0), AREA, 1.0, 2.0)],
            resolution=-1.0,
        )


def test_non_finite_resolution_rejected_by_name():
    """NaN used to construct and fail later with an unnamed ``cannot convert
    float NaN to integer``; +inf would quantise every instant to NaN."""
    import pytest

    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="resolution must be >= 0 and finite"):
            MobilityField(
                [RandomWaypointTrajectory(np.random.default_rng(0), AREA, 1.0, 2.0)],
                resolution=bad,
            )
