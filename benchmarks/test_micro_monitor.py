"""Micro-benchmark of the invariant monitor's per-event hooks.

A monitored GroCoCa run checks one TCG row on every ``record_location``
and every ``record_access`` at the MSS, and calls ``on_schedule`` /
``on_step`` on every kernel push and pop.  Timed here:

* **check_tcg_row** over every row of a manager fed the control-plane
  bench's MSS contacts (``test_micro_control_plane.contact_sequence``,
  motion groups of five at the paper's density) at N ∈ {40, 120, 240},
  for three TCG shapes: *empty* (Δ = 0, no pair within it), *typical*
  (the ``SimulationConfig`` defaults Δ = 100 m, δ = 0.1: about four
  members a row) and *dense* (every located pair a member).  The
  two-stage check of ``src/`` runs beside the whole-row check it replaced
  (``tests/_monitor_reference.py``); both must find nothing and count the
  same checks.
* **on_schedule** and **on_step**, one call each, against a real
  :class:`~repro.sim.Environment`.

Each side is timed ``REPEATS`` times, alternately, and the best pass is
reported (timings on a shared machine swing between passes).  The
timings are reported, not gated (docs/PERFORMANCE.md, "Observation").
"""

import math
import time

from conftest import run_once
from test_micro_control_plane import contact_sequence

from repro.check import InvariantMonitor
from repro.core.tcg import TCGManager
from repro.sim import Environment
from tests._monitor_reference import WholeRowMonitor

HOST_COUNTS = (40, 120, 240)
N_DATA = 3000  # as in the control-plane bench's contact sequence
SHAPES = {  # name: (Δ, δ); ω = 0.5 throughout
    "empty": (0.0, 0.1),
    "typical": (100.0, 0.1),
    "dense": (1e9, 0.0),
}
PASSES = 20  # sweeps over every row per timed pass
HOOK_CALLS = 100_000
REPEATS = 5


def fed_manager(n_hosts, delta, similarity):
    tcg = TCGManager(n_hosts, N_DATA, delta, similarity, 0.5)
    for client, position, item in contact_sequence(n_hosts):
        tcg.record_location(client, position)
        tcg.record_access(client, item)
    return tcg


def sweep_rows(monitor, tcg):
    """Seconds per check_tcg_row over one timed pass of ``PASSES`` sweeps."""
    start = time.perf_counter()
    for _ in range(PASSES):
        for client in range(tcg.n_clients):
            monitor.check_tcg_row(tcg, client, 0.0)
    return (time.perf_counter() - start) / (PASSES * tcg.n_clients)


def measure_rows(n_hosts, delta, similarity):
    tcg = fed_manager(n_hosts, delta, similarity)
    new, old = InvariantMonitor(), WholeRowMonitor()
    new_s = old_s = math.inf
    for _ in range(REPEATS):
        new_s = min(new_s, sweep_rows(new, tcg))
        old_s = min(old_s, sweep_rows(old, tcg))
    assert new.checks_run == old.checks_run  # and neither raised
    return new_s, old_s, tcg.member.sum() / n_hosts


def measure_hooks():
    """Seconds per on_schedule and per on_step on a quiet kernel."""
    env = Environment()
    best = [math.inf, math.inf]
    for _ in range(REPEATS):
        for slot, hook in enumerate(
            (InvariantMonitor().on_schedule, InvariantMonitor().on_step)
        ):
            start = time.perf_counter()
            for _ in range(HOOK_CALLS):
                hook(env, 1.0)
            best[slot] = min(best[slot], (time.perf_counter() - start) / HOOK_CALLS)
    return best


def test_micro_monitor(benchmark, record_table):
    rows, (schedule_s, step_s) = run_once(
        benchmark,
        lambda: (
            [
                (shape, n, *measure_rows(n, *SHAPES[shape]))
                for shape in SHAPES
                for n in HOST_COUNTS
            ],
            measure_hooks(),
        ),
    )
    lines = [
        "=== Micro: the invariant monitor, per hook call ===",
        f"  each side: best of {REPEATS} alternating passes",
        f"  check_tcg_row, mean over {PASSES} sweeps of every row of a manager fed"
        " the control-plane bench's contacts",
        "  tcg          N  members/row  two_stage_us  whole_row_us  ratio",
    ]
    for shape, n_hosts, new_s, old_s, members in rows:
        lines.append(
            f"  {shape:8s}  {n_hosts:4d}  {members:11.1f}  {new_s * 1e6:12.1f}"
            f"  {old_s * 1e6:12.1f}  {new_s / old_s:5.2f}"
        )
    lines += [
        f"  kernel hooks, mean of {HOOK_CALLS:,} calls",
        f"  on_schedule_us  {schedule_s * 1e6:6.3f}",
        f"  on_step_us      {step_s * 1e6:6.3f}",
    ]
    record_table("micro_monitor", "\n".join(lines))
