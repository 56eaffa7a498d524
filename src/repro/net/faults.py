"""Seeded fault injection across the wireless stack.

The paper's channel model is idealised: a transmission only fails when a
host is out of range or gracefully disconnected.  Real MANET radios lose
frames — independently (thermal noise) and in bursts (fading, interference)
— and real peers crash without running any goodbye protocol.  This module
adds both as a *plan* of per-component fault processes:

* :class:`LinkFaults` — message loss on one link class, as an i.i.d. loss
  probability plus an optional two-state Gilbert–Elliott chain whose *bad*
  state adds bursty loss on top;
* :class:`CrashFaults` — crash-stop host outages (the radio dies instantly,
  mid-protocol, without the graceful ``p_disc`` bookkeeping) with a
  uniformly distributed downtime;
* :class:`FaultPlan` — one :class:`LinkFaults` each for the P2P medium, the
  MSS uplink and the MSS downlink, plus the crash process.

:class:`FaultInjector` samples the plan from **named random streams**
(:class:`~repro.sim.random.RandomStreams`): every component draws from its
own ``faults-*`` stream, so enabling p2p loss never perturbs the mobility,
workload or crash sequences, and identical seeds with identical plans are
bit-for-bit reproducible under both serial and parallel sweep execution.

The all-zero default plan is a strict no-op: no stream is advanced and no
behavioural branch is taken, so runs without faults stay bit-identical to
the pre-fault-layer simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.sim.random import RandomStreams, uniform

__all__ = ["CrashFaults", "FaultInjector", "FaultPlan", "LinkFaults", "LinkInjector"]


def _check_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class LinkFaults:
    """Loss model of one link class.

    ``loss`` is the i.i.d. per-delivery loss probability.  The Gilbert–
    Elliott component is a two-state chain advanced once per delivery
    attempt: ``burst_on`` is P(good → bad), ``burst_off`` is P(bad → good),
    and while the chain is bad an extra ``burst_loss`` is added to the loss
    probability.  Leaving ``burst_on`` or ``burst_loss`` at zero disables
    the chain; leaving everything at zero disables the link's faults
    entirely (no random draws are made).
    """

    loss: float = 0.0
    burst_loss: float = 0.0
    burst_on: float = 0.0
    burst_off: float = 0.5

    def __post_init__(self):
        _check_probability("loss", self.loss)
        _check_probability("burst_loss", self.burst_loss)
        _check_probability("burst_on", self.burst_on)
        _check_probability("burst_off", self.burst_off)

    @property
    def enabled(self) -> bool:
        return self.loss > 0.0 or self.bursty

    @property
    def bursty(self) -> bool:
        return self.burst_on > 0.0 and self.burst_loss > 0.0


@dataclass(frozen=True)
class CrashFaults:
    """Crash-stop host outages.

    ``rate`` is the expected number of crashes per host per simulated
    second; victims are drawn uniformly.  A crashed host's radio dies
    instantly — no NDP goodbye, no membership bookkeeping — and comes back
    after a downtime drawn uniformly from ``[down_min, down_max]``.
    """

    rate: float = 0.0
    down_min: float = 5.0
    down_max: float = 15.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.rate < 0.0:
            raise ValueError(f"crash rate must be >= 0, got {self.rate}")
        if self.down_min <= 0.0:
            raise ValueError(f"down_min must be positive, got {self.down_min}")
        if self.down_min > self.down_max:
            raise ValueError("down_min must be <= down_max")

    @property
    def enabled(self) -> bool:
        return self.rate > 0.0


@dataclass(frozen=True)
class FaultPlan:
    """Per-component fault processes for one run.

    Part of :class:`~repro.core.config.SimulationConfig`, so a plan flows
    into worker processes and the result-cache key exactly like every other
    parameter.  The default (all rates zero) is a strict no-op.
    """

    p2p: LinkFaults = field(default_factory=LinkFaults)
    uplink: LinkFaults = field(default_factory=LinkFaults)
    downlink: LinkFaults = field(default_factory=LinkFaults)
    crash: CrashFaults = field(default_factory=CrashFaults)

    @property
    def enabled(self) -> bool:
        return (
            self.p2p.enabled
            or self.uplink.enabled
            or self.downlink.enabled
            or self.crash.enabled
        )


class LinkInjector:
    """Samples one link class's loss process.

    ``n_states`` Gilbert–Elliott chains share one random stream; the P2P
    medium uses one chain per receiving host (each host fades
    independently), the MSS links use a single chain each.
    """

    def __init__(self, faults: LinkFaults, rng: np.random.Generator, n_states: int = 1):
        self.faults = faults
        self.rng = rng
        self.enabled = faults.enabled
        self._bursty = faults.bursty
        self._bad = np.zeros(max(1, n_states), dtype=bool)
        self.checks = 0
        self.drops = 0

    def drop(self, state: int = 0) -> bool:
        """Whether this delivery is lost; advances the chain for ``state``."""
        if not self.enabled:
            return False
        self.checks += 1
        faults = self.faults
        p_loss = faults.loss
        if self._bursty:
            transition = self.rng.random()
            if self._bad[state]:
                if transition < faults.burst_off:
                    self._bad[state] = False
            elif transition < faults.burst_on:
                self._bad[state] = True
            if self._bad[state]:
                p_loss = min(1.0, p_loss + faults.burst_loss)
        if p_loss > 0.0 and self.rng.random() < p_loss:
            self.drops += 1
            return True
        return False


class FaultInjector:
    """Samples a :class:`FaultPlan` from per-component named streams.

    Wired into :class:`~repro.net.p2p.P2PNetwork` (per-receiver loss on
    broadcast and unicast deliveries), :class:`~repro.net.channel.ServerChannel`
    (uplink/downlink message loss) and the crash daemon of
    :class:`~repro.core.simulation.Simulation`.
    """

    def __init__(self, plan: FaultPlan, streams: RandomStreams, n_hosts: int):
        if n_hosts < 1:
            raise ValueError("n_hosts must be >= 1")
        self.plan = plan
        self.n_hosts = n_hosts
        self.p2p = LinkInjector(plan.p2p, streams.stream("faults-p2p"), n_hosts)
        self.uplink = LinkInjector(plan.uplink, streams.stream("faults-uplink"))
        self.downlink = LinkInjector(plan.downlink, streams.stream("faults-downlink"))
        self._crash_rng = streams.stream("faults-crash")
        #: Crash-stop outages actually started (skipped victims excluded).
        self.crashes = 0

    # -- link loss ---------------------------------------------------------------

    def drop_p2p(self, receiver: int) -> bool:
        """Whether the copy addressed to ``receiver`` is lost on the air."""
        return self.p2p.drop(receiver)

    def drop_uplink(self) -> bool:
        return self.uplink.drop()

    def drop_downlink(self) -> bool:
        return self.downlink.drop()

    # -- crash-stop outages ------------------------------------------------------

    def next_crash_delay(self) -> float:
        """Exponential inter-crash time across the whole population."""
        aggregate_rate = self.plan.crash.rate * self.n_hosts
        return float(self._crash_rng.exponential(1.0 / aggregate_rate))

    def crash_victim(self) -> int:
        return int(self._crash_rng.integers(self.n_hosts))

    def outage_duration(self) -> float:
        crash = self.plan.crash
        return float(uniform(self._crash_rng, crash.down_min, crash.down_max))

    # -- reporting ---------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Fault-event totals for :class:`~repro.sim.profile.RunProfile`."""
        return {
            "fault_p2p_drops": self.p2p.drops,
            "fault_uplink_drops": self.uplink.drops,
            "fault_downlink_drops": self.downlink.drops,
            "fault_crashes": self.crashes,
        }
