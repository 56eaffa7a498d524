"""Lightweight per-run instrumentation (wall-clock, events, counters).

Every perf PR from here on is measured against the numbers this module
surfaces: per-run wall-clock time, kernel events processed, the derived
events/second throughput, and a small dictionary of per-subsystem work
counters (P2P transmissions, mobility snapshot rebuilds, NDP beacon
rounds, ...).  The profile rides along on
:class:`~repro.core.metrics.Results` as a ``compare=False`` field, so two
runs of the same configuration still compare equal even though their
wall-clock times differ — the serial/parallel determinism guarantee is
stated over the *simulated* outcome, never over timing.

Collection is cheap (two ``perf_counter`` calls and a handful of integer
reads per run), so :func:`repro.core.simulation.run_simulation` attaches a
profile to every result unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

__all__ = ["RunProfile"]


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

    @property
    def events_per_sec(self) -> float:
        """Kernel throughput; 0 when the run was too fast to time."""
        return self.events / self.wall_time if self.wall_time > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for JSON export."""
        return {
            "wall_time": self.wall_time,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            **{f"counter_{name}": value for name, value in sorted(self.counters.items())},
        }

    def __str__(self) -> str:
        extras = "  ".join(
            f"{name}={value}" for name, value in sorted(self.counters.items())
        )
        return (
            f"{self.wall_time:.2f}s wall  {self.events} events  "
            f"{self.events_per_sec:,.0f} events/s"
            + (f"  {extras}" if extras else "")
        )
