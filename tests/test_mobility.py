"""Unit + property tests for the mobility substrate."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import (
    GroupMemberTrajectory,
    MobilityField,
    RandomWaypointTrajectory,
    Rectangle,
    StationaryTrajectory,
    build_group_mobility,
)
from repro.mobility.geometry import euclidean, random_point_in_disc
from repro.mobility.trajectory import PiecewiseLinearTrajectory, Segment

AREA = Rectangle(1000.0, 1000.0)


def rng(seed=0):
    return np.random.default_rng(seed)


# -- geometry ---------------------------------------------------------------


def test_rectangle_rejects_degenerate():
    with pytest.raises(ValueError):
        Rectangle(0.0, 10.0)


def test_rectangle_contains_and_clamp():
    area = Rectangle(10.0, 20.0)
    assert area.contains(np.array([5.0, 5.0]))
    assert not area.contains(np.array([11.0, 5.0]))
    clamped = area.clamp(np.array([-3.0, 25.0]))
    assert clamped.tolist() == [0.0, 20.0]


def test_rectangle_random_point_inside():
    area = Rectangle(10.0, 20.0)
    generator = rng()
    for _ in range(100):
        assert area.contains(area.random_point(generator))


def test_rectangle_center_diagonal():
    area = Rectangle(30.0, 40.0)
    assert area.center.tolist() == [15.0, 20.0]
    assert area.diagonal == pytest.approx(50.0)


def test_euclidean():
    assert euclidean(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)


@given(st.floats(min_value=0.1, max_value=100.0), st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_random_point_in_disc_within_radius(radius, seed):
    x, y = random_point_in_disc(np.random.default_rng(seed), radius)
    assert math.hypot(x, y) <= radius + 1e-9


# -- trajectories -----------------------------------------------------------


def test_segment_position_and_clamp():
    segment = Segment(1.0, 3.0, np.array([0.0, 0.0]), np.array([2.0, 0.0]))
    assert segment.position(2.0).tolist() == [2.0, 0.0]
    assert segment.position(0.0).tolist() == [0.0, 0.0]  # clamped to start
    assert segment.position(99.0).tolist() == [4.0, 0.0]  # clamped to end
    assert segment.endpoint.tolist() == [4.0, 0.0]


def test_stationary_trajectory():
    trajectory = StationaryTrajectory([3.0, 4.0])
    assert trajectory.position(0.0).tolist() == [3.0, 4.0]
    assert trajectory.position(1e6).tolist() == [3.0, 4.0]


def test_waypoint_stays_in_area():
    trajectory = RandomWaypointTrajectory(rng(), AREA, 1.0, 5.0)
    for t in np.linspace(0.0, 2000.0, 400):
        assert AREA.contains(trajectory.position(t), tolerance=1e-6)


def test_waypoint_is_continuous():
    trajectory = RandomWaypointTrajectory(rng(1), AREA, 1.0, 5.0)
    previous = trajectory.position(0.0)
    dt = 0.25
    for step in range(1, 2000):
        current = trajectory.position(step * dt)
        # speed bound: at most v_max * dt between samples.
        assert euclidean(previous, current) <= 5.0 * dt + 1e-9
        previous = current


def test_waypoint_moves_at_bounded_speed():
    trajectory = RandomWaypointTrajectory(rng(2), AREA, 2.0, 3.0, pause_time=0.0)
    t, dt = 0.0, 0.01
    speeds = []
    for _ in range(500):
        a = trajectory.position(t)
        b = trajectory.position(t + dt)
        speeds.append(euclidean(a, b) / dt)
        t += dt
    # Sampling may straddle a waypoint change, so test the bulk.
    speeds = sorted(speeds)
    assert speeds[10] >= 1.9
    assert speeds[-1] <= 3.0 + 1e-6


def test_waypoint_pause_segments_present():
    trajectory = RandomWaypointTrajectory(rng(3), AREA, 5.0, 5.0, pause_time=1.0)
    trajectory.position(2000.0)
    pauses = [
        segment
        for segment in trajectory._segments
        if np.allclose(segment.velocity, 0.0)
    ]
    assert pauses
    assert all(
        segment.end - segment.start == pytest.approx(1.0) for segment in pauses
    )


def test_waypoint_rejects_bad_speeds():
    with pytest.raises(ValueError):
        RandomWaypointTrajectory(rng(), AREA, 0.0, 5.0)
    with pytest.raises(ValueError):
        RandomWaypointTrajectory(rng(), AREA, 5.0, 1.0)


def test_waypoint_rejects_start_outside_area():
    with pytest.raises(ValueError):
        RandomWaypointTrajectory(
            rng(), AREA, 1.0, 2.0, start_point=np.array([2000.0, 0.0])
        )


def test_trajectory_rejects_past_query():
    trajectory = RandomWaypointTrajectory(rng(), AREA, 1.0, 2.0, start_time=10.0)
    trajectory.position(20.0)
    with pytest.raises(ValueError):
        trajectory.position(5.0)


def test_trajectory_lazy_generation():
    trajectory = RandomWaypointTrajectory(rng(4), AREA, 1.0, 5.0)
    assert trajectory.segment_count == 0
    trajectory.position(1.0)
    few = trajectory.segment_count
    trajectory.position(1000.0)
    assert trajectory.segment_count > few


def test_bad_subclass_segment_contract():
    class Broken(PiecewiseLinearTrajectory):
        def _next_segment(self, start, origin):
            return Segment(start + 1.0, start + 2.0, origin, np.zeros(2))

    broken = Broken(0.0, np.zeros(2))
    with pytest.raises(ValueError):
        broken.position(5.0)


# -- group mobility -----------------------------------------------------------


def test_group_member_tracks_reference_within_span():
    reference = RandomWaypointTrajectory(rng(5), AREA, 1.0, 5.0)
    member = GroupMemberTrajectory(reference, rng(6), span=50.0)
    for t in np.linspace(0.0, 500.0, 200):
        offset = euclidean(member.position(t), reference.position(t))
        assert offset <= 50.0 + 1e-6


def test_group_member_zero_span_equals_reference():
    reference = RandomWaypointTrajectory(rng(7), AREA, 1.0, 5.0)
    member = GroupMemberTrajectory(reference, rng(8), span=0.0)
    for t in (0.0, 10.0, 123.4):
        assert np.allclose(member.position(t), reference.position(t))


def test_group_member_rejects_bad_params():
    reference = StationaryTrajectory([0.0, 0.0])
    with pytest.raises(ValueError):
        GroupMemberTrajectory(reference, rng(), span=-1.0)
    with pytest.raises(ValueError):
        GroupMemberTrajectory(reference, rng(), span=1.0, leg_min=5.0, leg_max=1.0)


INF, NAN = math.inf, math.nan
_ORIGIN = StationaryTrajectory([0.0, 0.0])
_BAD_MOBILITY = {
    "rectangle-width-nan": (lambda: Rectangle(NAN, 100.0), "width"),
    "rectangle-width-inf": (lambda: Rectangle(INF, 100.0), "width"),
    "rectangle-height-nan": (lambda: Rectangle(100.0, NAN), "height"),
    "rectangle-height-minus-inf": (lambda: Rectangle(100.0, -INF), "height"),
    "stationary-inf": (lambda: StationaryTrajectory((INF, 0.0)), "point"),
    "stationary-nan": (lambda: StationaryTrajectory((0.0, NAN)), "point"),
    "rwp-v_min-nan": (lambda: RandomWaypointTrajectory(rng(), AREA, NAN, 5.0), "v_min"),
    "rwp-v_max-inf": (lambda: RandomWaypointTrajectory(rng(), AREA, 1.0, INF), "v_max"),
    "rwp-v_max-nan": (lambda: RandomWaypointTrajectory(rng(), AREA, 1.0, NAN), "v_max"),
    "rwp-pause-nan": (
        lambda: RandomWaypointTrajectory(rng(), AREA, 1.0, 5.0, NAN),
        "pause_time",
    ),
    "rwp-pause-inf": (
        lambda: RandomWaypointTrajectory(rng(), AREA, 1.0, 5.0, INF),
        "pause_time",
    ),
    "rpgm-span-inf": (lambda: GroupMemberTrajectory(_ORIGIN, rng(), INF), "span"),
    "rpgm-span-nan": (lambda: GroupMemberTrajectory(_ORIGIN, rng(), NAN), "span"),
    "rpgm-leg_min-nan": (
        lambda: GroupMemberTrajectory(_ORIGIN, rng(), 1.0, leg_min=NAN),
        "leg_min",
    ),
    "rpgm-leg_max-inf": (
        lambda: GroupMemberTrajectory(_ORIGIN, rng(), 1.0, leg_max=INF),
        "leg_max",
    ),
    "group-span-inf": (
        lambda: build_group_mobility(rng(), 4, 2, AREA, 1.0, 5.0, group_span=INF),
        "span",
    ),
    "group-v_max-inf": (
        lambda: build_group_mobility(rng(), 4, 2, AREA, 1.0, INF),
        "v_max",
    ),
}


@pytest.mark.parametrize("build, name", _BAD_MOBILITY.values(), ids=_BAD_MOBILITY)
def test_mobility_constructors_reject_non_finite_parameters_by_name(build, name):
    """A NaN or infinite parameter fails at construction and names itself,
    not as NaN positions, a silent "no pause" or an overflow inside a
    position query long after."""
    with pytest.raises(ValueError, match=name):
        build()


def test_group_members_stay_mutually_close():
    field, group_of = build_group_mobility(
        rng(9), n_clients=10, group_size=5, area=AREA, v_min=1.0, v_max=5.0
    )
    for t in np.linspace(0.0, 300.0, 50):
        positions = field.positions(t)
        for i in range(10):
            for j in range(i + 1, 10):
                if group_of[i] == group_of[j]:
                    assert euclidean(positions[i], positions[j]) <= 100.0 + 1e-6


def test_build_group_mobility_group_assignment():
    field, group_of = build_group_mobility(
        rng(10), n_clients=7, group_size=3, area=AREA, v_min=1.0, v_max=2.0
    )
    assert len(field) == 7
    assert group_of == [0, 0, 0, 1, 1, 1, 2]


def test_build_group_mobility_validates():
    with pytest.raises(ValueError):
        build_group_mobility(rng(), 0, 1, AREA, 1.0, 2.0)
    with pytest.raises(ValueError):
        build_group_mobility(rng(), 5, 0, AREA, 1.0, 2.0)


# -- field queries -------------------------------------------------------------


def grid_field():
    points = [(0.0, 0.0), (30.0, 0.0), (90.0, 0.0), (0.0, 40.0)]
    return MobilityField([StationaryTrajectory(p) for p in points])


def test_field_positions_shape_and_cache():
    field = grid_field()
    a = field.positions(1.0)
    assert a.shape == (4, 2)
    refreshes = field.snapshot_refreshes
    assert field.positions(1.0) is a  # cached
    assert field.snapshot_refreshes == refreshes
    field.positions(2.0)
    assert field.snapshot_refreshes == refreshes + 1  # refilled in place


def test_field_distance():
    field = grid_field()
    assert field.distance(0, 1, 0.0) == pytest.approx(30.0)
    assert field.distance(0, 3, 0.0) == pytest.approx(40.0)


def test_field_neighbors_of():
    field = grid_field()
    assert field.neighbors_of(0, 0.0, radius=50.0).tolist() == [1, 3]
    assert field.neighbors_of(0, 0.0, radius=100.0).tolist() == [1, 2, 3]
    assert field.neighbors_of(2, 0.0, radius=50.0).tolist() == []


def test_field_adjacency_symmetric():
    field = grid_field()
    matrix = field.adjacency(0.0, radius=50.0)
    assert matrix.dtype == bool and matrix.shape == (4, 4)
    assert np.array_equal(matrix, matrix.T)
    assert not matrix.diagonal().any()
    assert matrix[0, 1] and matrix[0, 3] and not matrix[0, 2]
    assert field.adjacency(0.0, radius=0.0).sum() == 0


def test_field_adjacency_is_built_once_per_snapshot_and_radius():
    field = grid_field()
    first = field.adjacency(1.0, radius=50.0)
    assert field.adjacency_builds == 1
    assert field.adjacency(1.0, radius=50.0) is first
    field.neighbors_of(2, 1.0, radius=50.0)
    assert field.adjacency_builds == 1
    field.adjacency(1.0, radius=100.0)  # another radius: another matrix
    field.adjacency(2.0, radius=100.0)  # another snapshot
    assert field.adjacency_builds == 3


def test_field_range_queries_reject_negative_radius():
    field = grid_field()
    with pytest.raises(ValueError, match="-5.0"):
        field.neighbors_of(0, 0.0, radius=-5.0)
    with pytest.raises(ValueError, match="-5.0"):
        field.adjacency(0.0, radius=-5.0)


def test_field_range_queries_reject_nan_radius():
    field = grid_field()
    with pytest.raises(ValueError, match="nan"):
        field.neighbors_of(0, 0.0, radius=math.nan)
    with pytest.raises(ValueError, match="nan"):
        field.adjacency(0.0, radius=math.nan)


def test_field_neighbor_symmetry_random():
    field, _ = build_group_mobility(
        rng(11), n_clients=20, group_size=4, area=AREA, v_min=1.0, v_max=5.0
    )
    for t in (0.0, 50.0, 100.0):
        for i in range(20):
            for j in field.neighbors_of(i, t, radius=100.0):
                assert i in field.neighbors_of(int(j), t, radius=100.0)


def test_field_requires_trajectories():
    with pytest.raises(ValueError):
        MobilityField([])


# -- vectorised snapshot bit-identity --------------------------------------


class _OpaqueTrajectory:
    """Hides the concrete type so the field takes the scalar fallback."""

    def __init__(self, inner):
        self._inner = inner

    def position(self, t):
        return self._inner.position(t)


def _paired(build, seed, resolution):
    """Two fields over ``build(stream)`` from one seed, one vectorised and
    one forced onto the fallback, and the mobility stream of each."""
    streams = (rng(seed), rng(seed))
    fast = MobilityField(build(streams[0]), resolution=resolution)
    slow = MobilityField(
        [_OpaqueTrajectory(t) for t in build(streams[1])], resolution=resolution
    )
    assert fast._fast and not slow._fast
    return fast, slow, streams


def _paired_fields(seed, group_size, resolution):
    """:func:`_paired` over the paper's motion model, 12 hosts."""
    return _paired(
        lambda stream: build_group_mobility(
            stream, 12, group_size, AREA, 1.0, 5.0
        )[0].trajectories,
        seed,
        resolution,
    )


def _same_draws(streams):
    return streams[0].bit_generator.state == streams[1].bit_generator.state


@given(
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from([1, 3, 4]),
    st.sampled_from([0.0, 0.1, 1.0]),
    st.lists(
        st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=25
    ),
)
@settings(max_examples=25, deadline=None)
def test_vectorised_snapshots_are_bitwise_identical_to_scalar(
    seed, group_size, resolution, times
):
    """The incremental fast path is a pure optimisation: every coordinate,
    including signed zeros, matches the per-host scalar rebuild bit for
    bit, and the shared RNG stream sees identical draws."""
    fast, slow, streams = _paired_fields(seed, group_size, resolution)
    for t in sorted(times):
        a = fast.positions(t)
        b = slow.positions(t)
        assert a.tobytes() == b.tobytes(), f"snapshot diverged at t={t}"
    assert _same_draws(streams)
    assert fast.snapshot_rebuilds == 0
    assert slow.snapshot_refreshes == 0


def test_vectorised_snapshot_handles_backward_queries_bitwise():
    """Out-of-order queries (cache-busting replays) still match exactly."""
    fast, slow, _ = _paired_fields(7, 4, 0.1)
    for t in [0.0, 120.0, 30.0, 120.0, 0.05, 400.0, 399.95]:
        assert fast.positions(t).tobytes() == slow.positions(t).tobytes()


class _QuarterSecondLegs(PiecewiseLinearTrajectory):
    """Legs of 0.25, 0.5 or 1 s drawn from a shared stream: every segment
    end is a multiple of 0.25 s, exact in binary, so many hosts' ends fall
    on the same instants and on the query times themselves."""

    def __init__(self, stream):
        super().__init__(0.0, stream.uniform(0.0, 100.0, size=2))
        self._stream = stream

    def _next_segment(self, start, origin):
        duration = (0.25, 0.5, 1.0)[self._stream.integers(3)]
        velocity = self._stream.uniform(-5.0, 5.0, size=2)
        return Segment(start, start + duration, origin, velocity)


@pytest.mark.parametrize("resolution", [0.0, 1.0])
def test_many_ends_in_one_bucket_and_an_end_at_the_query_time(resolution):
    """Many segments expire inside one bucket (and several per host when a
    query skips buckets), and ends land exactly on query times.  Base and
    offset components both expire, so the heap must hand the stale hosts
    over in the scalar loop's order."""

    def build(stream):
        return [
            GroupMemberTrajectory(_QuarterSecondLegs(stream), stream, 20.0, 0.5, 1.0)
            if host % 2
            else _QuarterSecondLegs(stream)
            for host in range(12)
        ]

    fast, slow, streams = _paired(build, 3, resolution)
    for t in [0.0, 0.25, 1.0, 1.0, 1.75, 2.0, 5.0, 5.5, 9.0, 9.25, 20.0]:
        assert fast.positions(t).tobytes() == slow.positions(t).tobytes(), t
    assert _same_draws(streams)


def test_interleaved_host_and_snapshot_queries_with_a_backward_one():
    """``position_of`` and ``positions`` share the snapshot; a backward
    query between them re-resolves through the one backward branch and
    the heap carries on from there."""
    fast, slow, streams = _paired_fields(11, 4, 0.1)
    calls = [
        (None, 0.0), (3, 12.34), (None, 60.0), (7, 60.05), (5, 20.0),
        (None, 20.0), (0, 0.0), (None, 61.0), (11, 150.0), (None, 150.02),
    ]  # fmt: skip
    for host, t in calls:
        if host is None:
            a, b = fast.positions(t), slow.positions(t)
        else:
            a, b = fast.position_of(host, t), slow.position_of(host, t)
        assert a.tobytes() == b.tobytes(), (host, t)
    assert _same_draws(streams)


# -- per-snapshot adjacency vs a scalar reference ---------------------------


def _reference_neighbors(positions, index, radius):
    """The range test one host and one peer at a time."""
    found = []
    for peer in range(len(positions)):
        if peer == index:
            continue
        dx = positions[peer][0] - positions[index][0]
        dy = positions[peer][1] - positions[index][1]
        if dx * dx + dy * dy <= radius * radius:
            found.append(peer)
    return found


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_clients=st.integers(min_value=2, max_value=40),
    group_size=st.sampled_from([1, 3, 4]),
    resolution=st.sampled_from([0.0, 0.1]),
    opaque=st.booleans(),
    # Multiples of half a bucket plus a jitter: neighbours in the list land
    # in the same bucket, on its boundary and in the next one.
    ticks=st.lists(st.integers(min_value=0, max_value=4000), min_size=1, max_size=8),
    jitter=st.sampled_from([0.0, 1e-9, 0.02, 0.049999]),
    radius=st.sampled_from([0.0, 1.0, 50.0, 100.0, 250.0, 2000.0]),
)
@settings(max_examples=40, deadline=None)
def test_range_queries_match_scalar_reference(
    seed, n_clients, group_size, resolution, opaque, ticks, jitter, radius
):
    field, _ = build_group_mobility(
        rng(seed), n_clients, group_size, AREA, 1.0, 5.0, resolution=resolution
    )
    if opaque:
        field = MobilityField(
            [_OpaqueTrajectory(t) for t in field.trajectories], resolution=resolution
        )
    assert field._fast is not opaque
    for tick in ticks:
        t = tick * 0.05 + jitter
        builds = field.adjacency_builds
        fresh = (field.quantise(t), radius) != field._adjacency_key
        matrix = field.adjacency(t, radius)
        assert field.adjacency_builds == builds + fresh
        assert field.adjacency(t, radius) is matrix  # same bucket: no rebuild
        assert field.adjacency_builds == builds + fresh
        assert np.array_equal(matrix, matrix.T)
        assert not matrix.diagonal().any()
        positions = field.positions(t).tolist()
        for index in range(n_clients):
            assert field.neighbors_of(index, t, radius).tolist() == (
                _reference_neighbors(positions, index, radius)
            )
        assert field.adjacency_builds == builds + fresh
