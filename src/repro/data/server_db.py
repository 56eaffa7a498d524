"""The MSS database with updates and the EWMA TTL model (Sections IV-F, V-C).

Items are updated at ``DataUpdateRate`` items/second at uniformly random
item ids.  For each item the MSS tracks the last-update time ``t_l`` and an
EWMA of the update interval ``u_x``:

    u_x  <-  α (t_c − t_l) + (1 − α) u_x        on every update at t_c

Items idle for longer than their current ``u_x`` are aged the same way by a
periodic examination pass, so a dormant item's TTL horizon keeps growing.
When a client fetches item ``x`` at time ``t_c`` the MSS assigns

    TTL = max(u_x − (t_c − t_l), 0)

i.e. the expected remaining lifetime of the current version.  Items that
have never been updated get an infinite TTL (the paper's default setting is
"no data update").
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.sim.kernel import Environment

__all__ = ["ServerDatabase"]


class ServerDatabase:
    """Item versions, the update process, and TTL assignment."""

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        n_data: int,
        update_rate: float = 0.0,
        alpha: float = 0.5,
        examine_interval: float = 30.0,
    ):
        if n_data < 1:
            raise ValueError("need at least one item")
        if update_rate < 0:
            raise ValueError("update_rate must be >= 0")
        if not 0 <= alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if examine_interval <= 0:
            raise ValueError("examine_interval must be positive")
        self.env = env
        self.rng = rng
        self.n_data = int(n_data)
        self.update_rate = float(update_rate)
        self.alpha = float(alpha)
        self.examine_interval = float(examine_interval)
        self.version = [0] * self.n_data
        self._last_update = [0.0] * self.n_data  # t_l; creation time is 0
        self._interval = [math.nan] * self.n_data  # u_x; nan = never updated
        self.updates_applied = 0
        if self.update_rate > 0:
            env.process(self._update_process())
            env.process(self._examine_process())

    # -- update machinery ---------------------------------------------------------

    def _update_process(self):
        while True:
            yield self.env.timeout(self.rng.exponential(1.0 / self.update_rate))
            self.apply_update(int(self.rng.integers(0, self.n_data)))

    def _examine_process(self):
        while True:
            yield self.env.timeout(self.examine_interval)
            self.examine_idle_items()

    def apply_update(self, item: int) -> None:
        """Install a new version of ``item`` and refresh its EWMA interval."""
        now = self.env.now
        gap = now - self._last_update[item]
        if math.isnan(self._interval[item]):
            self._interval[item] = gap
        else:
            self._interval[item] = (
                self.alpha * gap + (1.0 - self.alpha) * self._interval[item]
            )
        self._last_update[item] = now
        self.version[item] += 1
        self.updates_applied += 1

    def examine_idle_items(self) -> int:
        """Age the EWMA of items idle longer than their current interval.

        Per Section IV-F, ``t_l`` is *not* advanced — only the interval
        estimate grows.  Returns the number of items aged.
        """
        now = self.env.now
        alpha, interval = self.alpha, self._interval
        aged = 0
        for item, (last, u) in enumerate(zip(self._last_update, interval)):
            idle = now - last
            if idle > u:  # False for NaN: a never-updated item is not aged
                interval[item] = alpha * idle + (1.0 - alpha) * u
                aged += 1
        return aged

    # -- client-facing API -----------------------------------------------------------

    def assign_ttl(self, item: int, now: Optional[float] = None) -> float:
        """TTL for a copy of ``item`` fetched at ``now``."""
        if now is None:
            now = self.env.now
        interval = self._interval[item]
        if math.isnan(interval):
            return math.inf
        return max(interval - (now - self._last_update[item]), 0.0)

    def last_update_time(self, item: int) -> float:
        return float(self._last_update[item])

    def update_interval(self, item: int) -> float:
        """Current EWMA update interval (nan when never updated)."""
        return float(self._interval[item])

    def updated_since(self, item: int, retrieve_time: float) -> bool:
        """Whether ``item`` changed after a copy retrieved at ``retrieve_time``.

        This is the MSS-side validation check: ``t_r < t_l``.
        """
        return retrieve_time < self._last_update[item]
