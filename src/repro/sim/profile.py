"""Lightweight per-run instrumentation (wall-clock, events, counters).

Per-run wall-clock time, kernel events processed and a small dictionary
of per-subsystem work counters (P2P transmissions, mobility snapshot
rebuilds, NDP beacon rounds, ...) that the goldens, the trace contract
and ``perfbench`` read; host-time *reporting* is perfbench's job
(docs/PERFORMANCE.md).  The profile rides along on
:class:`~repro.core.metrics.Results` as a ``compare=False`` field, so two
runs of the same configuration still compare equal even though their
wall-clock times differ — the serial/parallel determinism guarantee is
stated over the *simulated* outcome, never over timing.

Collection is cheap (two :func:`wall_clock` reads and a handful of integer
reads per run), so :func:`repro.core.simulation.run_simulation` attaches a
profile to every result unconditionally.  This module is the only one in
``src/`` that imports the host clock (``tests/test_source_hazards.py``):
:func:`wall_clock` is ``time.perf_counter``, for profiling only, and never
feeds simulated time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter as wall_clock
from typing import Dict

__all__ = ["RunProfile", "wall_clock"]


@dataclass
class RunProfile:
    """Timing and work counters of one simulated experiment."""

    #: Wall-clock seconds from configuration build to final results.
    wall_time: float
    #: Kernel events processed (queue pops) over the whole run.
    events: int
    #: Per-subsystem work counters, e.g. ``p2p_broadcasts``,
    #: ``snapshot_rebuilds``, ``ndp_rounds``; mostly event counts, but
    #: accumulated durations (``server_uplink_wait``) are floats.  Runs
    #: with the failure-aware retrieve layer on additionally carry the
    #: ``health_*`` counters (hedges, hedge wins, breaker trips/probes,
    #: budget exhaustions, crash fast-failovers) summed over all hosts.
    counters: Dict[str, float] = field(default_factory=dict)
