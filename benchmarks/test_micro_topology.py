"""Micro-benchmark of the per-snapshot topology: one build vs row queries.

``MobilityField.adjacency`` answers every range question of a position
snapshot from one (N, N) comparison.  The alternative it replaced cost one
(N, 2) delta array per question.  This bench times both on the paper's
motion model at the paper's density (100 hosts per km², TranRange 100 m)
and reports, per host count, the *break-even*: how many row queries a
snapshot must serve before the dense build is the cheaper of the two.
That is the number a grid-hashed index or a compiled kernel has to beat
(ROADMAP item 1).

It also times what opening a bucket costs before any position is
computed: finding and re-resolving the expired motion segments.  The
field pops them off a heap of segment ends; the mask scan it replaced
(kept below, like ``row_query``) ran eight N-wide masks and four
reductions per bucket.  Both then re-resolve the same segments; the
table shows that shared part too.
"""

import math
import time

import numpy as np
from conftest import run_once

from repro.mobility import Rectangle, build_group_mobility

HOST_COUNTS = (40, 160, 500, 1000)
DENSITY_PER_KM2 = 100.0
TRAN_RANGE = 100.0
SNAPSHOTS = 30
BUCKETS = 300


def row_query(positions, index, radius, include_mask):
    """The per-host range query the adjacency replaced (kept for the bench)."""
    deltas = positions - positions[index]
    close = (deltas[:, 0] ** 2 + deltas[:, 1] ** 2) <= radius * radius
    close[index] = False
    close &= include_mask
    return np.nonzero(close)[0]


def mask_refresh(field, t, window):
    """The mask-scan refresh the heap replaced (kept for the bench).

    Resolves every stale segment of ``field`` at ``t`` in the field's order
    and returns the hosts it resolved; ``window`` is its remembered
    ``[latest start, earliest end)``.
    """
    if window[0] <= t < window[1]:
        return []
    base_traj, off_traj = field._parts[0][0], field._parts[1][0]
    stale_b = ((t >= field._b_end) | (t < field._b_start)) & field._b_dyn
    stale_o = ((t >= field._o_end) | (t < field._o_start)) & field._o_dyn
    hosts = np.nonzero(stale_b | stale_o)[0]
    for index in hosts:
        if stale_b[index]:
            segment = base_traj[index].active_segment(t)
            field._b_start[index] = segment.start
            field._b_end[index] = segment.end
            field._b_org[index] = segment.origin
            field._b_vel[index] = segment.velocity
        if stale_o[index]:
            segment = off_traj[index].active_segment(t)
            field._o_start[index] = segment.start
            field._o_end[index] = segment.end
            field._o_org[index] = segment.origin
            field._o_vel[index] = segment.velocity
    window[0] = max(field._b_start.max(), field._o_start.max())
    window[1] = min(field._b_end.min(), field._o_end.min())
    return hosts.tolist()


def build_field(n_hosts):
    side = 1000.0 * math.sqrt(n_hosts / DENSITY_PER_KM2)
    field, _ = build_group_mobility(
        np.random.default_rng(n_hosts), n_hosts, 5, Rectangle(side, side), 1.0, 5.0,
        resolution=0.1,
    )
    return field


def resolve(field, t, stale):
    """Re-resolve the given ``(host, part)`` segments with no search: the
    part of opening a bucket that the heap and the mask scan share."""
    for index, part in stale:
        paths, start, end, origin, velocity = field._parts[part]
        segment = paths[index].active_segment(t)
        start[index] = segment.start
        end[index] = segment.end
        origin[index] = segment.origin
        velocity[index] = segment.velocity


def measure_refresh(n_hosts):
    """Seconds per bucket (heap, mask scan, resolving alone), hosts per bucket.

    Three fields from one seed open the same ``BUCKETS`` buckets: through
    the heap, through the mask scan, and by resolving the heap's stale
    segments directly.  The first bucket, which resolves every host, is
    not timed.
    """
    heap_field, mask_field, plain_field = (build_field(n_hosts) for _ in range(3))
    plain_field._refresh_segments(0.0)
    window = [math.inf, -math.inf]
    heap_s = mask_s = resolve_s = 0.0
    resolved = 0
    for bucket in range(BUCKETS + 1):
        t = bucket * 0.1
        ends = heap_field._b_end.copy(), heap_field._o_end.copy()
        start = time.perf_counter()
        heap_field._refresh_segments(t)
        heap_s += time.perf_counter() - start
        start = time.perf_counter()
        hosts = mask_refresh(mask_field, t, window)
        mask_s += time.perf_counter() - start
        stale = sorted(
            (index, part)
            for part, before in enumerate(ends)
            for index in np.nonzero(heap_field._parts[part][2] != before)[0].tolist()
        )
        # Both resolve the same hosts, or the comparison is meaningless.
        assert sorted({index for index, _ in stale}) == hosts
        if bucket == 0:
            heap_s = mask_s = 0.0
            continue
        start = time.perf_counter()
        resolve(plain_field, t, stale)
        resolve_s += time.perf_counter() - start
        resolved += len(hosts)
    return heap_s / BUCKETS, mask_s / BUCKETS, resolve_s / BUCKETS, resolved / BUCKETS


def measure(n_hosts):
    """(seconds per build, seconds per old row query, seconds per row read)."""
    field = build_field(n_hosts)
    everyone = np.ones(n_hosts, dtype=bool)
    build_s = old_s = read_s = 0.0
    for snapshot in range(1, SNAPSHOTS + 1):
        t = snapshot * 0.1
        positions = field.positions(t)  # the snapshot itself is common to both
        start = time.perf_counter()
        adjacency = field.adjacency(t, TRAN_RANGE)
        build_s += time.perf_counter() - start
        start = time.perf_counter()
        for index in range(n_hosts):
            np.nonzero(adjacency[index] & everyone)[0]
        read_s += time.perf_counter() - start
        start = time.perf_counter()
        for index in range(n_hosts):
            row_query(positions, index, TRAN_RANGE, everyone)
        old_s += time.perf_counter() - start
        # Same answer, or the comparison is meaningless.
        probe = snapshot % n_hosts
        assert np.array_equal(
            np.nonzero(adjacency[probe])[0],
            row_query(positions, probe, TRAN_RANGE, everyone),
        )
    assert field.adjacency_builds == SNAPSHOTS
    queries = SNAPSHOTS * n_hosts
    return build_s / SNAPSHOTS, old_s / queries, read_s / queries


def test_micro_topology_build_vs_row_queries(benchmark, record_table):
    rows = run_once(
        benchmark, lambda: [(n, measure(n), measure_refresh(n)) for n in HOST_COUNTS]
    )
    lines = [
        "=== Micro: one adjacency build vs per-host row queries ===",
        f"  density {DENSITY_PER_KM2:.0f}/km2, TranRange {TRAN_RANGE:.0f} m,"
        f" mean of {SNAPSHOTS} snapshots",
        "      N   build_us  old_query_us  row_read_us  break_even_queries"
        "  scratch_bytes",
    ]
    for n_hosts, (build, old, read), _ in rows:
        # build + q * read <= q * old  <=>  q >= build / (old - read)
        saved = old - read
        break_even = math.ceil(build / saved) if saved > 0 else math.inf
        scratch = n_hosts * n_hosts * (1 + 2 * 8)
        lines.append(
            f"  {n_hosts:5d}  {build * 1e6:9.1f}  {old * 1e6:12.2f}  {read * 1e6:11.2f}"
            f"  {break_even:18}  {scratch:13,d}"
        )
        assert build > 0 and old > 0
    lines += [
        "",
        "=== Micro: opening a bucket, heap vs mask scan ===",
        f"  expired segments found and re-resolved, mean of {BUCKETS} 0.1 s buckets",
        "      N   heap_us   mask_us  of_which_resolve_us  hosts_per_bucket",
    ]
    for n_hosts, _, (heap, mask, resolve_only, hosts) in rows:
        lines.append(
            f"  {n_hosts:5d}  {heap * 1e6:8.1f}  {mask * 1e6:8.1f}"
            f"  {resolve_only * 1e6:19.1f}  {hosts:16.2f}"
        )
    record_table("micro_topology", "\n".join(lines))
