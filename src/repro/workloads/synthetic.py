"""Synthetic non-stationary workloads: YCSB workload A, flash crowds,
diurnal rate modulation and popularity drift.

All four engines keep the legacy stream discipline — item draws from the
shared ``"workload"`` stream, think-time draws from each host's own
``client-{index}`` stream — so enabling one perturbs no other subsystem's
RNG sequence.  ``popularity-drift`` additionally draws its per-epoch rank
permutations from the dedicated ``"workload-drift"`` stream, and
``flash-crowd`` derives each spike's hot set from a per-spike named
stream (``workload-flash-{k}``), so hot sets are independent of which
host happens to enter the spike first.

The simulator models the *demand* side only: clients issue read-through
requests and the server database churns independently at
``data_update_rate``.  YCSB's read/update operations therefore collapse
to item choice — an "update" requests the item it would have written
(read-modify-write demand) — which is the standard mapping when YCSB
drives a cache simulator rather than a storage engine.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.data.workload import AccessPattern, build_access_patterns
from repro.data.zipf import ZipfGenerator
from repro.workloads.base import WorkloadEngine, demand_stream
from repro.workloads.registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.config import SimulationConfig
    from repro.sim.random import RandomStreams

__all__ = [
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "PopularityDriftWorkload",
    "YCSBWorkload",
    "diurnal_rate_factor",
]


class _DrawStream:
    """One host's stream over an engine whose ``draw_item`` picks items.

    Think times are the legacy exponential draws; the item comes from
    ``engine.draw_item(pattern, now)`` (``pattern`` is the host's group
    window, or None for an engine that ignores groups).
    """

    __slots__ = ("engine", "pattern", "rng", "mean")

    def __init__(
        self, engine, pattern: Optional[AccessPattern], rng, mean: float
    ) -> None:
        self.engine = engine
        self.pattern = pattern
        self.rng = rng
        self.mean = float(mean)

    def next_delay(self, now: float) -> float:
        return self.rng.exponential(self.mean)

    def next_item(self, now: float) -> int:
        item = self.engine.draw_item(self.pattern, now)
        self.engine.note(item)
        return item


# --------------------------------------------------------------------- ycsb


@register(
    "ycsb",
    summary="YCSB core workload A (zipfian, 50/50 read/update)",
    citation="Cooper et al., SoCC 2010",
)
class YCSBWorkload(WorkloadEngine):
    """YCSB core workload A over the whole database.

    Each operation draws its type (read or update, half each) and then a
    zipfian item with YCSB's default constant ``theta``.  Both operation
    types request the item, so the type draw only advances the shared
    stream.
    """

    key = "ycsb"
    theta = 0.99

    def __init__(
        self,
        config: "SimulationConfig",
        streams: "RandomStreams",
        group_of: List[int],
    ) -> None:
        super().__init__(config, streams, group_of)
        self.rng = demand_stream(streams)
        self._zipf = ZipfGenerator(self.rng, config.n_data, self.theta)

    def draw_item(self, pattern: None, now: float) -> int:
        """One operation's item, shared across hosts (one stream)."""
        self.rng.random()  # the read/update draw: both request the item
        return self._zipf.sample()  # rank order doubles as item id order

    def bind(self, index: int, rng: "np.random.Generator") -> _DrawStream:
        return _DrawStream(self, None, rng, self.config.think_time_mean)


# -------------------------------------------------------------- flash crowd


@register(
    "flash-crowd",
    summary="stationary Zipf with transient global hot-set spikes",
)
class FlashCrowdWorkload(WorkloadEngine):
    """Baseline group-Zipf demand with periodic flash-crowd spikes.

    Every ``period`` seconds a spike lasting ``duration`` seconds makes
    all hosts request one of ``hot_items`` globally shared items with
    probability ``boost`` (the remainder falls through to the host's own
    Zipf window).  Each spike's hot set comes from its own named stream,
    so it is reproducible regardless of event interleaving.
    """

    key = "flash-crowd"
    period = 240.0
    duration = 40.0
    hot_items = 8
    boost = 0.8

    def __init__(
        self,
        config: "SimulationConfig",
        streams: "RandomStreams",
        group_of: List[int],
    ) -> None:
        super().__init__(config, streams, group_of)
        self.rng = demand_stream(streams)
        self.patterns = build_access_patterns(
            self.rng,
            self.group_of,
            config.n_data,
            config.access_range,
            config.theta,
        )
        # Only the current spike's hot set is kept (constant memory); a
        # revisited spike index regenerates the same set from its stream.
        self._hot_spike = -1
        self._hot_set: Optional["np.ndarray"] = None

    def spike_index(self, now: float) -> int:
        """The active spike's index, or -1 outside every spike window."""
        k = int(now // self.period)
        return k if (now - k * self.period) < self.duration else -1

    def hot_set(self, spike: int) -> "np.ndarray":
        """Spike ``spike``'s shared hot items (derived, order-independent)."""
        if spike != self._hot_spike:
            rng = self.streams.stream(f"workload-flash-{spike}")
            self._hot_spike = spike
            self._hot_set = rng.integers(0, self.config.n_data, size=self.hot_items)
        return self._hot_set

    def draw_item(self, pattern: AccessPattern, now: float) -> int:
        spike = self.spike_index(now)
        if spike >= 0 and self.rng.random() < self.boost:
            hot = self.hot_set(spike)
            return int(hot[int(self.rng.integers(0, len(hot)))])
        return pattern.next_item()

    def bind(self, index: int, rng: "np.random.Generator") -> _DrawStream:
        return _DrawStream(
            self, self.patterns[index], rng, self.config.think_time_mean
        )


# ------------------------------------------------------------------ diurnal


def diurnal_rate_factor(now: float, amplitude: float, period: float) -> float:
    """The sinusoidal request-rate multiplier at simulated ``now``.

    Averages to exactly 1 over a full period, so the modulated process
    keeps the configured mean request rate (pinned by the Hypothesis
    mean-rate property test).
    """
    return 1.0 + amplitude * math.sin(2.0 * math.pi * now / period)


class _DiurnalStream:
    __slots__ = ("engine", "pattern", "rng", "mean")

    def __init__(
        self, engine: "DiurnalWorkload", pattern: AccessPattern, rng, mean: float
    ) -> None:
        self.engine = engine
        self.pattern = pattern
        self.rng = rng
        self.mean = float(mean)

    def next_delay(self, now: float) -> float:
        factor = diurnal_rate_factor(now, self.engine.amplitude, self.engine.period)
        return self.rng.exponential(self.mean) / factor

    def next_item(self, now: float) -> int:
        item = self.pattern.next_item()
        self.engine.note(item)
        return item


@register(
    "diurnal",
    summary="sinusoidal request-rate modulation of the stationary process",
)
class DiurnalWorkload(WorkloadEngine):
    """Stationary Zipf items with a day/night request-rate cycle.

    Think times are the legacy exponential draws divided by
    :func:`diurnal_rate_factor`, so the instantaneous request rate swings
    by ``±amplitude`` around the configured mean over each ``period``.
    """

    key = "diurnal"
    amplitude = 0.5
    period = 400.0

    def __init__(
        self,
        config: "SimulationConfig",
        streams: "RandomStreams",
        group_of: List[int],
    ) -> None:
        super().__init__(config, streams, group_of)
        self.patterns = build_access_patterns(
            demand_stream(streams),
            self.group_of,
            config.n_data,
            config.access_range,
            config.theta,
        )

    def bind(self, index: int, rng: "np.random.Generator") -> _DiurnalStream:
        return _DiurnalStream(
            self, self.patterns[index], rng, self.config.think_time_mean
        )


# ---------------------------------------------------------- popularity drift


@register(
    "popularity-drift",
    summary="periodic rank reshuffles; marginal Zipf skew is preserved",
    citation="cf. Wang & Kulkarni, popularity-ranked DTN caching",
)
class PopularityDriftWorkload(WorkloadEngine):
    """Content churn: which item holds which rank reshuffles per epoch.

    Every ``period`` seconds the rank-to-offset mapping inside each
    group's access window is re-drawn from the dedicated
    ``"workload-drift"`` stream.  The *marginal* distribution over ranks
    is untouched — the process stays exactly as skewed as the stationary
    workload — but the identity of the hot items churns, which is the
    regime where signature-based cooperative caching has to re-learn.
    """

    key = "popularity-drift"
    period = 300.0

    def __init__(
        self,
        config: "SimulationConfig",
        streams: "RandomStreams",
        group_of: List[int],
    ) -> None:
        super().__init__(config, streams, group_of)
        self.patterns = build_access_patterns(
            demand_stream(streams),
            self.group_of,
            config.n_data,
            config.access_range,
            config.theta,
        )
        self._drift_rng = streams.stream("workload-drift")
        self._epoch = -1
        self._perm: Optional["np.ndarray"] = None

    def permutation(self, now: float) -> "np.ndarray":
        """The rank permutation of the epoch containing ``now``.

        Epochs advance monotonically with simulated time, and skipped
        epochs still consume their permutation draw, so the mapping at
        any instant is independent of which host asked first.
        """
        epoch = int(now // self.period)
        while self._epoch < epoch:
            self._epoch += 1
            self._perm = self._drift_rng.permutation(self.config.access_range)
        return self._perm

    def draw_item(self, pattern: AccessPattern, now: float) -> int:
        perm = self.permutation(now)
        return pattern.item_for_rank(int(perm[pattern.next_rank()]))

    def bind(self, index: int, rng: "np.random.Generator") -> _DrawStream:
        return _DrawStream(
            self, self.patterns[index], rng, self.config.think_time_mean
        )
