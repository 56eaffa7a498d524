"""Position snapshots and neighbor queries over a population of hosts."""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.mobility.geometry import Rectangle
from repro.mobility.rpgm import GroupMemberTrajectory
from repro.mobility.trajectory import (
    PiecewiseLinearTrajectory,
    StationaryTrajectory,
    Trajectory,
)
from repro.mobility.waypoint import RandomWaypointTrajectory

__all__ = ["MobilityField", "build_group_mobility"]

_INF = math.inf


class MobilityField:
    """The set of all host trajectories with vectorised geometric queries.

    Snapshots are cached per query time: within one simulated instant (e.g.
    a broadcast and its receptions) every query reuses one (N, 2) array,
    and every range query reads a row of one (N, N) adjacency matrix built
    from it (see :meth:`adjacency`).

    For the in-tree trajectory types (stationary, piecewise-linear, RPGM
    group members) snapshots are maintained *incrementally*: the field
    caches each host's active motion segment in flat arrays and evaluates
    the whole population with a handful of vectorised operations, touching
    individual trajectories only when a segment expires.  The arithmetic
    matches the scalar path operation-for-operation and stale segments are
    re-resolved in ascending host order, so positions — and the shared RNG
    stream driving lazy segment generation — are bit-identical to a full
    per-host rebuild.  Unknown :class:`Trajectory` subclasses fall back to
    the per-host rebuild loop (counted by ``snapshot_rebuilds``).
    """

    def __init__(
        self, trajectories: Sequence[Trajectory], resolution: float = 0.0
    ):
        """``resolution`` > 0 quantises snapshot times to that granularity:
        queries within one bucket share a snapshot.  At the paper's maximum
        speed of 5 m/s a 0.1 s resolution bounds the position error by half
        a metre — far below the transmission range — while collapsing the
        millisecond-scale timestamps of individual transmissions."""
        if not trajectories:
            raise ValueError("MobilityField needs at least one trajectory")
        if not 0 <= resolution < _INF:
            raise ValueError(f"resolution must be >= 0 and finite, got {resolution}")
        self.trajectories = list(trajectories)
        self.resolution = float(resolution)
        self._snapshot_time = -math.inf
        # One preallocated (N, 2) buffer, refilled in place per bucket.
        self._snapshot = np.empty((len(self.trajectories), 2))
        #: Full per-host rebuilds (fallback path only); read by the profiler.
        self.snapshot_rebuilds = 0
        #: Incremental vectorised snapshot computations (one per fresh time).
        self.snapshot_refreshes = 0
        #: ``positions()`` calls served straight from the cached buffer.
        self.snapshot_reuses = 0
        #: (N, N) adjacency matrices computed (one per snapshot and radius).
        self.adjacency_builds = 0
        self._adjacency_key = (-math.inf, -1.0)
        # The adjacency and its two float scratch planes, refilled in place
        # per snapshot (np.empty: no page is touched before the first build).
        n = len(self.trajectories)
        self._adjacency = np.empty((n, n), dtype=bool)
        self._dx = np.empty((n, n))
        self._dy = np.empty((n, n))
        self._fast = self._build_segment_cache()

    def _build_segment_cache(self) -> bool:
        """Set up per-host active-segment arrays; False on unknown types.

        Each host decomposes into a *base* component (its own piecewise
        path, or the shared group reference) plus an optional *offset*
        component (RPGM drift).  Static components get a sentinel segment
        ``[0, inf)`` with zero velocity so they never go stale.
        """
        n = len(self.trajectories)
        base: List[Optional[PiecewiseLinearTrajectory]] = [None] * n
        off: List[Optional[PiecewiseLinearTrajectory]] = [None] * n
        self._b_start = np.zeros(n)
        self._b_end = np.full(n, _INF)
        self._b_org = np.zeros((n, 2))
        self._b_vel = np.zeros((n, 2))
        self._o_start = np.zeros(n)
        self._o_end = np.full(n, _INF)
        self._o_org = np.zeros((n, 2))
        self._o_vel = np.zeros((n, 2))
        for index, trajectory in enumerate(self.trajectories):
            base_part: Trajectory = trajectory
            if isinstance(trajectory, GroupMemberTrajectory):
                base_part = trajectory.reference
                drift = trajectory._offset
                if drift is not None:
                    off[index] = drift
                    self._o_end[index] = -_INF  # resolve on first query
            if isinstance(base_part, StationaryTrajectory):
                self._b_org[index] = base_part.position(0.0)
            elif isinstance(base_part, PiecewiseLinearTrajectory):
                base[index] = base_part
                self._b_end[index] = -_INF  # resolve on first query
            else:
                return False
        self._b_dyn = np.array([t is not None for t in base])
        self._o_dyn = np.array([t is not None for t in off])
        self._any_offset = bool(self._o_dyn.any())
        self._every_offset = bool(self._o_dyn.all())
        self._off_where = np.broadcast_to(self._o_dyn[:, None], (n, 2))
        self._dt = np.empty(n)
        self._odt = np.empty(n)
        self._off_buf = np.empty((n, 2))
        # Part 0 of a host is its base component, part 1 its offset.
        self._parts = (
            (base, self._b_start, self._b_end, self._b_org, self._b_vel),
            (off, self._o_start, self._o_end, self._o_org, self._o_vel),
        )
        # Every active segment starts at or before the last resolve and ends
        # after it.  +inf: none yet, so the first query builds the heap.
        self._resolved_at = _INF
        self._heap: List[Tuple[float, int, int]] = []
        return True

    def __len__(self) -> int:
        return len(self.trajectories)

    def quantise(self, t: float) -> float:
        """The snapshot-bucket key for time ``t``.

        Queries whose keys are equal share one position snapshot and the
        adjacency matrix derived from it.
        """
        if self.resolution <= 0:
            return t
        return math.floor(t / self.resolution) * self.resolution

    _quantise = quantise

    def _refresh_segments(self, t: float) -> None:
        """Re-resolve every expired active segment at time ``t``.

        They come off a heap of segment ends.  Ascending host order with
        base-before-offset per host reproduces the scalar rebuild loop's
        trajectory-extension order exactly, so the shared RNG stream sees
        identical draws.
        """
        if t < self._resolved_at:
            # A backward query (a replay, or the first query): a segment
            # starting after ``t`` is stale too.  Expire those, rebuild.
            self._b_end[(self._b_start > t) & self._b_dyn] = -_INF
            self._o_end[(self._o_start > t) & self._o_dyn] = -_INF
            self._heap = [
                (end, host, part)
                for part, (paths, _, ends, _, _) in enumerate(self._parts)
                for host, end in enumerate(ends.tolist())
                if paths[host] is not None
            ]
            heapify(self._heap)
        self._resolved_at = t
        heap = self._heap
        stale = []
        while heap and heap[0][0] <= t:
            stale.append(heappop(heap)[1:])
        for index, part in sorted(stale):
            paths, start, end, origin, velocity = self._parts[part]
            segment = paths[index].active_segment(t)
            start[index] = segment.start
            end[index] = segment.end
            origin[index] = segment.origin
            velocity[index] = segment.velocity
            heappush(heap, (segment.end, index, part))

    def positions(self, t: float) -> np.ndarray:
        """(N, 2) array of positions at time ``t`` (cached per bucket).

        The same buffer is reused across rebuilds: callers that keep the
        array (or a row view) beyond the current snapshot bucket must copy
        it.  Every in-tree caller consumes positions synchronously.
        """
        t = self._quantise(t)
        snapshot = self._snapshot
        if t == self._snapshot_time:
            self.snapshot_reuses += 1
            return snapshot
        if not self._fast:
            for index, trajectory in enumerate(self.trajectories):
                snapshot[index] = trajectory.position(t)
            self._snapshot_time = t
            self.snapshot_rebuilds += 1
            return snapshot
        self._refresh_segments(t)
        # Segment.position(t) elementwise:  origin + velocity * clamp(t).
        # The clamp is np.clip's min(max(t, start), end) without its Python
        # wrapper frames; in this argument order a signed-zero tie resolves
        # to the bound, as np.clip does, so the bits are np.clip's.
        dt = self._dt
        np.maximum(t, self._b_start, out=dt)
        np.minimum(dt, self._b_end, out=dt)
        dt -= self._b_start
        np.multiply(self._b_vel, dt[:, None], out=snapshot)
        snapshot += self._b_org
        if self._any_offset:
            odt = self._odt
            np.maximum(t, self._o_start, out=odt)
            np.minimum(odt, self._o_end, out=odt)
            odt -= self._o_start
            drift = np.multiply(self._o_vel, odt[:, None], out=self._off_buf)
            drift += self._o_org
            if self._every_offset:
                snapshot += drift
            else:
                # Masked add: a plain `+ 0.0` would flip the sign of any
                # -0.0 coordinate on offset-free hosts.
                np.add(snapshot, drift, out=snapshot, where=self._off_where)
        self._snapshot_time = t
        self.snapshot_refreshes += 1
        return snapshot

    def position_of(self, index: int, t: float) -> np.ndarray:
        return self.positions(t)[index]

    def distance(self, i: int, j: int, t: float) -> float:
        positions = self.positions(t)
        return float(np.hypot(*(positions[i] - positions[j])))

    def adjacency(self, t: float, radius: float) -> np.ndarray:
        """(N, N) bool matrix: ``[i, j]`` iff hosts i != j are within ``radius``.

        Built once per (snapshot, radius) with the elementwise arithmetic a
        per-host query would use (``dx*dx + dy*dy <= radius*radius``), so it
        is symmetric and every row equals that host's scalar range test.
        The same buffer is refilled by the next build: read rows of it
        synchronously, do not write to it and do not keep it.
        """
        if not radius >= 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        key = (self._quantise(t), radius)
        if key == self._adjacency_key:
            return self._adjacency
        positions = self.positions(t)
        close, dx, dy = self._adjacency, self._dx, self._dy
        x = positions[:, 0]
        y = positions[:, 1]
        np.subtract(x[:, None], x[None, :], out=dx)
        np.subtract(y[:, None], y[None, :], out=dy)
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        dx += dy
        np.less_equal(dx, radius * radius, out=close)
        np.fill_diagonal(close, False)
        self._adjacency_key = key
        self.adjacency_builds += 1
        return close

    def neighbors_of(self, index: int, t: float, radius: float) -> np.ndarray:
        """Indices of hosts within ``radius`` of host ``index`` at ``t``.

        The host itself is never included.
        """
        return np.nonzero(self.adjacency(t, radius)[index])[0]


def build_group_mobility(
    rng: np.random.Generator,
    n_clients: int,
    group_size: int,
    area: Rectangle,
    v_min: float,
    v_max: float,
    pause_time: float = 1.0,
    group_span: float = 50.0,
    resolution: float = 0.0,
) -> Tuple[MobilityField, List[int]]:
    """Build the paper's client motion model (Section V-B).

    Clients are divided into motion groups of ``group_size``; each group's
    reference point follows the random waypoint model and members follow the
    reference with a bounded offset (RPGM).  ``group_size == 1`` gives each
    client an individual random waypoint path (span 0).

    Returns the field plus ``group_of`` mapping client index -> group id.
    """
    if n_clients < 1:
        raise ValueError("need at least one client")
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    trajectories: List[Trajectory] = []
    group_of: List[int] = []
    group_id = 0
    built = 0
    while built < n_clients:
        members = min(group_size, n_clients - built)
        reference = RandomWaypointTrajectory(
            rng, area, v_min, v_max, pause_time=pause_time
        )
        span = 0.0 if members == 1 else group_span
        for _ in range(members):
            trajectories.append(GroupMemberTrajectory(reference, rng, span))
            group_of.append(group_id)
        built += members
        group_id += 1
    return MobilityField(trajectories, resolution=resolution), group_of
