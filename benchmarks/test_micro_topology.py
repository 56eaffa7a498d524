"""Micro-benchmark of the per-snapshot topology: one build vs row queries.

``MobilityField.adjacency`` answers every range question of a position
snapshot from one (N, N) comparison.  The alternative it replaced cost one
(N, 2) delta array per question.  This bench times both on the paper's
motion model at the paper's density (100 hosts per km², TranRange 100 m)
and reports, per host count, the *break-even*: how many row queries a
snapshot must serve before the dense build is the cheaper of the two.
That is the number a grid-hashed index or a compiled kernel has to beat
(ROADMAP item 1).
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


def row_query(positions, index, radius, include_mask):
    """The per-host range query the adjacency replaced (kept for the bench)."""
    deltas = positions - positions[index]
    close = (deltas[:, 0] ** 2 + deltas[:, 1] ** 2) <= radius * radius
    close[index] = False
    close &= include_mask
    return np.nonzero(close)[0]


def measure(n_hosts):
    """(seconds per build, seconds per old row query, seconds per row read)."""
    side = 1000.0 * math.sqrt(n_hosts / DENSITY_PER_KM2)
    field, _ = build_group_mobility(
        np.random.default_rng(n_hosts), n_hosts, 5, Rectangle(side, side), 1.0, 5.0,
        resolution=0.1,
    )
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
    rows = run_once(benchmark, lambda: [(n, *measure(n)) for n in HOST_COUNTS])
    lines = [
        "=== Micro: one adjacency build vs per-host row queries ===",
        f"  density {DENSITY_PER_KM2:.0f}/km2, TranRange {TRAN_RANGE:.0f} m,"
        f" mean of {SNAPSHOTS} snapshots",
        "      N   build_us  old_query_us  row_read_us  break_even_queries"
        "  scratch_bytes",
    ]
    for n_hosts, build, old, read in rows:
        # build + q * read <= q * old  <=>  q >= build / (old - read)
        saved = old - read
        break_even = math.ceil(build / saved) if saved > 0 else math.inf
        scratch = n_hosts * n_hosts * (1 + 2 * 8)
        lines.append(
            f"  {n_hosts:5d}  {build * 1e6:9.1f}  {old * 1e6:12.2f}  {read * 1e6:11.2f}"
            f"  {break_even:18}  {scratch:13,d}"
        )
        assert build > 0 and old > 0
    record_table("micro_topology", "\n".join(lines))
