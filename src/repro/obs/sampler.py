"""Periodic time-series sampling of a running simulation.

A :class:`TimeSeriesSampler` is a kernel process in the style of the
invariant monitor's audit loop: every ``period`` simulated seconds it
reads the live simulation — request counters, cache fill, server-channel
queue depths, power totals, NDP neighbourhood sizes, TCG sizes, kernel
event counts — and appends one row.  Between two samples it derives the
*windowed* per-tier hit ratios from the cumulative outcome deltas, so the
series integrates back to the run's aggregate ratios exactly (the
Hypothesis property tests pin this).

Sampling is read-only.  The timeout events it schedules interleave with
the simulation's own events but never change their relative order, so the
simulated outcome is identical for every sample period (also pinned by a
property test).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.metrics import RequestOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.simulation import Simulation

__all__ = ["SAMPLE_COLUMNS", "TimeSeriesSampler"]

#: CSV column order of one sample row.
SAMPLE_COLUMNS: Tuple[str, ...] = (
    "t",
    "requests",
    "local_hits",
    "global_hits",
    "server_requests",
    "failures",
    "win_requests",
    "win_local",
    "win_global",
    "win_server",
    "win_failures",
    "win_local_ratio",
    "win_global_ratio",
    "win_server_ratio",
    "cache_fill",
    "uplink_queue",
    "downlink_queue",
    "power_data",
    "power_signature",
    "power_beacon",
    "neighbors_mean",
    "tcg_size_mean",
    "events_processed",
    "pending_events",
)


class TimeSeriesSampler:
    """Windowed time series of one run, sampled every ``period`` seconds."""

    def __init__(self, period: float = 5.0) -> None:
        if not (0 < period < math.inf):  # NaN fails every comparison
            raise ValueError(f"sample period must be positive and finite, got {period}")
        self.period = float(period)
        self.rows: List[List[float]] = []
        self._simulation: Optional["Simulation"] = None
        self._last_outcomes: Dict[RequestOutcome, int] = {
            outcome: 0 for outcome in RequestOutcome
        }
        self._last_requests = 0
        self.finalized = False

    @property
    def columns(self) -> Tuple[str, ...]:
        return SAMPLE_COLUMNS

    def attach(self, simulation: "Simulation") -> None:
        """Bind to a built simulation and start the sampling process."""
        if self._simulation is not None:
            raise RuntimeError("sampler is already attached to a simulation")
        self._simulation = simulation
        simulation.env.process(self._run(simulation))

    def _run(self, simulation: "Simulation") -> "Iterator[object]":
        env = simulation.env
        while True:
            yield env.timeout(self.period)
            self.sample()

    def finalize(self) -> None:
        """Take the closing partial-window sample at the end of the run."""
        if not self.finalized:
            self.sample()
            self.finalized = True

    def sample(self) -> None:
        """Append one row read from the live simulation."""
        simulation = self._simulation
        if simulation is None:
            raise RuntimeError("sampler is not attached to a simulation")
        env = simulation.env
        metrics = simulation.metrics
        config = simulation.config

        outcomes = dict(metrics.outcomes)
        win = {
            outcome: outcomes[outcome] - self._last_outcomes[outcome]
            for outcome in RequestOutcome
        }
        win_requests = metrics.requests - self._last_requests
        self._last_outcomes = outcomes
        self._last_requests = metrics.requests

        def ratio(outcome: RequestOutcome) -> float:
            return win[outcome] / win_requests if win_requests else 0.0

        cache_fill = sum(len(client.cache) for client in simulation.clients) / (
            config.n_clients * config.cache_size
        )
        power = simulation.ledger.by_purpose()

        ndp = simulation.ndp
        if ndp is not None:
            # Every host's live_neighbors count in one pass over the table:
            # the fresh links, less each host's link to itself.
            fresh = (env.now - ndp._last_heard) <= ndp.liveness_horizon
            links = int(np.count_nonzero(fresh)) - int(np.count_nonzero(fresh.diagonal()))
            neighbors_mean = links / len(simulation.clients)
        else:
            neighbors_mean = math.nan
        if simulation.tcg is not None:
            tcg_size_mean = float(simulation.tcg.member.sum()) / config.n_clients
        else:
            tcg_size_mean = math.nan

        self.rows.append(
            [
                env.now,
                float(metrics.requests),
                float(outcomes[RequestOutcome.LOCAL_HIT]),
                float(outcomes[RequestOutcome.GLOBAL_HIT]),
                float(outcomes[RequestOutcome.SERVER]),
                float(outcomes[RequestOutcome.FAILURE]),
                float(win_requests),
                float(win[RequestOutcome.LOCAL_HIT]),
                float(win[RequestOutcome.GLOBAL_HIT]),
                float(win[RequestOutcome.SERVER]),
                float(win[RequestOutcome.FAILURE]),
                ratio(RequestOutcome.LOCAL_HIT),
                ratio(RequestOutcome.GLOBAL_HIT),
                ratio(RequestOutcome.SERVER),
                cache_fill,
                float(simulation.channel.uplink_queue_length),
                float(simulation.channel.downlink_queue_length),
                power["data"],
                power["signature"],
                power["beacon"],
                neighbors_mean,
                tcg_size_mean,
                float(env.events_processed),
                float(env.pending_events),
            ]
        )

    def series(self, column: str) -> List[float]:
        """One named column of the sampled time series."""
        try:
            index = SAMPLE_COLUMNS.index(column)
        except ValueError:
            raise KeyError(
                f"unknown sample column {column!r}; "
                f"available: {', '.join(SAMPLE_COLUMNS)}"
            ) from None
        return [row[index] for row in self.rows]
