"""Unit + property tests for statistics accumulators and random streams."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.mobility import GroupMemberTrajectory
from repro.net.faults import CrashFaults
from repro.sim import RandomStreams, WelfordAccumulator
from repro.sim.random import uniform

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


def test_welford_empty():
    acc = WelfordAccumulator()
    assert acc.count == 0
    assert acc.mean == 0.0
    assert acc.variance == 0.0
    assert acc.stddev == 0.0


def test_welford_single_value():
    acc = WelfordAccumulator()
    acc.add(5.0)
    assert acc.mean == 5.0
    assert acc.variance == 0.0
    assert acc.min == acc.max == 5.0


@given(st.lists(finite_floats, min_size=1, max_size=200))
def test_welford_matches_numpy(values):
    acc = WelfordAccumulator()
    for value in values:
        acc.add(value)
    assert acc.count == len(values)
    assert acc.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
    if len(values) >= 2:
        scale = max(1.0, float(np.max(np.abs(values))) ** 2)
        assert acc.variance == pytest.approx(
            np.var(values), rel=1e-6, abs=1e-6 * scale
        )
    assert acc.min == min(values)
    assert acc.max == max(values)


def test_welford_total():
    acc = WelfordAccumulator()
    for value in (1, 2, 3):
        acc.add(value)
    assert acc.total == pytest.approx(6.0)


def test_random_streams_reproducible_across_instances():
    a = RandomStreams(42).stream("mobility").random(8)
    b = RandomStreams(42).stream("mobility").random(8)
    assert np.array_equal(a, b)


def test_random_streams_independent_of_creation_order():
    streams_1 = RandomStreams(7)
    streams_1.stream("x")
    first = streams_1.stream("y").random(4)

    streams_2 = RandomStreams(7)
    second = streams_2.stream("y").random(4)  # "y" created first this time
    assert np.array_equal(first, second)


def test_random_streams_distinct_names_differ():
    streams = RandomStreams(3)
    a = streams.stream("alpha").random(16)
    b = streams.stream("beta").random(16)
    assert not np.array_equal(a, b)


def test_random_streams_distinct_seeds_differ():
    a = RandomStreams(1).stream("s").random(16)
    b = RandomStreams(2).stream("s").random(16)
    assert not np.array_equal(a, b)


def test_random_streams_same_object_returned():
    streams = RandomStreams(5)
    assert streams.stream("s") is streams.stream("s")
    assert "s" in streams
    assert "t" not in streams


def _default(cls, name):
    return inspect.signature(cls).parameters[name].default


_CONFIG = SimulationConfig()
_CRASH = CrashFaults()
#: Every (low, high) the simulator draws uniformly, at its defaults.
UNIFORM_BOUNDS = {
    "area-width": (0.0, _CONFIG.area_width),
    "area-height": (0.0, _CONFIG.area_height),
    "disc-angle": (0.0, 2.0 * math.pi),
    "disc-radius": (0.0, 1.0),
    "rwp-speed": (_CONFIG.v_min, _CONFIG.v_max),
    "rpgm-leg": (
        _default(GroupMemberTrajectory, "leg_min"),
        _default(GroupMemberTrajectory, "leg_max"),
    ),
    "disconnect": (_CONFIG.disc_min, _CONFIG.disc_max),
    "crash-downtime": (_CRASH.down_min, _CRASH.down_max),
    "int-leg": (5, 15),
    "int-area": (0, 1000),
}


@pytest.mark.parametrize("bounds", UNIFORM_BOUNDS.values(), ids=UNIFORM_BOUNDS)
def test_uniform_helper_is_numpys_scalar_draw_bit_for_bit(bounds):
    """``uniform(rng, lo, hi)`` must be ``rng.uniform(lo, hi)``: the same
    floats and the same stream state after, or every simulated bit moves.
    This is also the platform check: a numpy build whose C formula
    ``low + range * next_double`` is contracted into one fused
    multiply-add rounds differently and fails here by name."""
    low, high = bounds
    for seed in range(10):
        reference = np.random.default_rng(seed)
        helper = np.random.default_rng(seed)
        expected = [reference.uniform(low, high) for _ in range(1000)]
        drawn = [uniform(helper, low, high) for _ in range(1000)]
        assert all(type(value) is float for value in drawn)
        assert np.array(drawn).tobytes() == np.array(expected).tobytes(), seed
        assert helper.bit_generator.state == reference.bit_generator.state
