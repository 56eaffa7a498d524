"""Per-peer health tracking for the failure-aware retrieve path.

ROADMAP item 5 (absim-style adaptive replica selection): once the fault
layer can lose frames and crash hosts, *which replier a host retrieves
from* matters as much as what it caches.  Each :class:`MobileHost` owns a
:class:`PeerHealthTracker` holding, per peer it has ever retrieved from:

* an EWMA of observed retrieve latency (and a derived quantile estimate
  used to time hedged second requests),
* an EWMA failure rate (1.0 per failed retrieve, 0.0 per served one),
* the outstanding-request count (retrieves in flight to that peer),
* an EWMA power cost (reply-path hop count — each extra hop costs every
  relay's radio),
* a :class:`CircuitBreaker` so a known-dead replier is skipped instead
  of timed out against.

Repliers are ranked by a string-keyed scoring policy from the
``peer-scoring`` table (:mod:`repro.policies.scoring`); ``arrival`` reproduces today's
first-reply behaviour exactly and is the golden-trace default.  The
module is pure bookkeeping — it never touches the kernel, draws
randomness only through the generator handed to it (``epsilon-greedy``),
and is only constructed when
:attr:`~repro.core.config.SimulationConfig.health_enabled` is true, so
disabled runs take zero new branches and stay bit-identical.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.policies import registry
from repro.policies.scoring import ScoringPolicy

__all__ = [
    "BREAKER_STATES",
    "CircuitBreaker",
    "Ewma",
    "PeerHealth",
    "PeerHealthTracker",
]

#: The breaker's three states (see :class:`CircuitBreaker`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"
BREAKER_STATES: Tuple[str, ...] = (CLOSED, OPEN, HALF_OPEN)

#: The only legal breaker transitions; the invariant monitor checks every
#: notified transition against this set.
LEGAL_TRANSITIONS: Tuple[Tuple[str, str], ...] = (
    (CLOSED, OPEN),
    (OPEN, HALF_OPEN),
    (HALF_OPEN, CLOSED),
    (HALF_OPEN, OPEN),
)

#: EWMA weight of the latency / failure-rate / power estimators.
HEALTH_ALPHA = 0.3
#: ε of the ``epsilon-greedy`` policy: the share of picks that explore.
POLICY_EPSILON = 0.1


class Ewma:
    """Exponentially weighted moving average; ``None`` until first observation."""

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self.value: Optional[float] = None

    def observe(self, sample: float) -> None:
        if self.value is None:
            self.value = sample
        else:
            self.value += self.alpha * (sample - self.value)


class CircuitBreaker:
    """Per-peer circuit breaker: closed → open → half-open probe.

    Contract (the Hypothesis state machine in ``tests/test_net_health.py``
    exercises it over arbitrary sequences):

    * **closed** — attempts flow freely; ``threshold`` *consecutive*
      failures trip the breaker open (a success resets the streak).
    * **open** — no attempts until ``cooldown`` simulated seconds after
      the trip; the first attempt after the cooldown transitions to
      half-open and becomes the probe.
    * **half-open** — exactly one probe may be in flight; its success
      closes the breaker, its failure re-opens it (counted as a fresh
      trip).  Stale outcomes of pre-trip attempts that resolve while the
      breaker is open are ignored — they describe the past.

    Transitions are returned from the mutating calls (never invented
    elsewhere) so the client can mirror every one into the tracer, the
    metrics and the invariant monitor.
    """

    def __init__(self, threshold: int, cooldown: float) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown <= 0.0:
            raise ValueError("cooldown must be positive")
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = -math.inf
        self.probe_in_flight = False
        self.trips = 0
        self.probes = 0

    def can_attempt(self, now: float) -> bool:
        """Whether a retrieve may be sent to this peer right now."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            return now >= self.opened_at + self.cooldown
        return not self.probe_in_flight

    def begin_attempt(self, now: float) -> List[Tuple[str, str]]:
        """Note a retrieve being sent; must only follow ``can_attempt``."""
        if not self.can_attempt(now):
            raise RuntimeError(f"attempt while breaker is {self.state}")
        transitions: List[Tuple[str, str]] = []
        if self.state == OPEN:
            # Cooldown elapsed: this attempt is the half-open probe.
            self.state = HALF_OPEN
            self.probe_in_flight = False
            transitions.append((OPEN, HALF_OPEN))
        if self.state == HALF_OPEN:
            self.probe_in_flight = True
            self.probes += 1
        return transitions

    def record_success(self, now: float) -> List[Tuple[str, str]]:
        if self.state == HALF_OPEN:
            self.state = CLOSED
            self.probe_in_flight = False
            self.consecutive_failures = 0
            return [(HALF_OPEN, CLOSED)]
        if self.state == CLOSED:
            self.consecutive_failures = 0
        return []  # stale success while open: ignored

    def record_failure(self, now: float) -> List[Tuple[str, str]]:
        if self.state == HALF_OPEN:
            self._trip(now)
            return [(HALF_OPEN, OPEN)]
        if self.state == CLOSED:
            self.consecutive_failures += 1
            if self.consecutive_failures >= self.threshold:
                self._trip(now)
                return [(CLOSED, OPEN)]
        return []  # stale failure while open: ignored

    def _trip(self, now: float) -> None:
        self.state = OPEN
        self.opened_at = now
        self.probe_in_flight = False
        self.consecutive_failures = 0
        self.trips += 1


class PeerHealth:
    """One peer's health state as seen by one host."""

    def __init__(self, alpha: float, breaker: Optional[CircuitBreaker]) -> None:
        self.latency = Ewma(alpha)
        self.failure_rate = Ewma(alpha)
        self.power = Ewma(alpha)  # reply-path hop count
        self.pending = 0
        self.breaker = breaker

    def expected_latency(self) -> float:
        """absim-style score: queue-aware expected response time.

        An unknown peer scores 0 — optimistically explored first, so the
        tracker bootstraps estimates instead of starving fresh repliers.
        """
        known = self.latency.value if self.latency.value is not None else 0.0
        return (self.pending + 1) * known


#: Whole-run engagement counters every tracker maintains; surfaced as
#: ``health_*`` in :class:`~repro.sim.profile.RunProfile` counters.
COUNTER_NAMES: Tuple[str, ...] = (
    "hedges",
    "hedge_wins",
    "breaker_trips",
    "breaker_probes",
    "budget_exhausted",
    "fast_failovers",
)


class PeerHealthTracker:
    """One host's view of every peer it has retrieved from."""

    def __init__(
        self,
        breaker_threshold: int,
        breaker_cooldown: float,
        policy: str,
        alpha: float = HEALTH_ALPHA,
        epsilon: float = POLICY_EPSILON,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.alpha = alpha
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self.policy = policy
        self.epsilon = epsilon
        self.rng = rng
        self._score: ScoringPolicy = registry.resolve("peer-scoring", policy)
        self._peers: Dict[int, PeerHealth] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

    def peer(self, peer: int) -> PeerHealth:
        """The peer's health record, created on first contact."""
        health = self._peers.get(peer)
        if health is None:
            breaker = (
                CircuitBreaker(self.breaker_threshold, self.breaker_cooldown)
                if self.breaker_threshold > 0
                else None
            )
            health = PeerHealth(self.alpha, breaker)
            self._peers[peer] = health
        return health

    # -- selection -------------------------------------------------------------

    def select(self, candidates: List[dict], now: float) -> Optional[dict]:
        """Rank the repliers whose breakers admit an attempt; ``None``
        when every candidate is circuit-broken (caller falls back to the
        MSS instead of burning a timeout against a known-dead peer)."""
        admitted = [
            reply
            for reply in candidates
            if self._can_attempt(reply["peer"], now)
        ]
        if not admitted:
            return None
        return self._score(admitted, self)

    def _can_attempt(self, peer: int, now: float) -> bool:
        health = self._peers.get(peer)
        if health is None or health.breaker is None:
            return True
        return health.breaker.can_attempt(now)

    # -- attempt lifecycle -----------------------------------------------------

    def begin_attempt(self, peer: int, now: float) -> Tuple[str, List[Tuple[str, str]]]:
        """Note a retrieve being sent; returns (breaker state, transitions)."""
        health = self.peer(peer)
        transitions: List[Tuple[str, str]] = []
        state = CLOSED
        if health.breaker is not None:
            transitions = health.breaker.begin_attempt(now)
            state = health.breaker.state
            if state == HALF_OPEN:
                self.counts["breaker_probes"] += 1
        health.pending += 1
        return state, transitions

    def record_success(
        self, peer: int, now: float, latency: float, hops: int
    ) -> List[Tuple[str, str]]:
        health = self.peer(peer)
        health.pending = max(0, health.pending - 1)
        health.latency.observe(latency)
        health.failure_rate.observe(0.0)
        health.power.observe(float(hops))
        if health.breaker is None:
            return []
        return health.breaker.record_success(now)

    def record_failure(self, peer: int, now: float) -> List[Tuple[str, str]]:
        health = self.peer(peer)
        health.pending = max(0, health.pending - 1)
        health.failure_rate.observe(1.0)
        transitions: List[Tuple[str, str]] = []
        if health.breaker is not None:
            transitions = health.breaker.record_failure(now)
        if any(new == OPEN for _old, new in transitions):
            self.counts["breaker_trips"] += 1
        return transitions

    def note_abandoned(self, peer: int) -> None:
        """A request stopped being waited for without a verdict (the
        losing side of a hedge race): release the slot, no penalty."""
        health = self.peer(peer)
        health.pending = max(0, health.pending - 1)

    def note(self, counter: str) -> None:
        """Bump one whole-run engagement counter (``hedges``, ...)."""
        self.counts[counter] += 1

    # -- hedging ---------------------------------------------------------------

    def hedge_delay(self, peer: int, quantile: float) -> Optional[float]:
        """How long to wait on ``peer`` before hedging: the ``quantile``
        of its latency estimate under an exponential model (the EWMA is
        the mean, so the q-quantile is ``-mean * ln(1 - q)``).  ``None``
        until the peer has a latency estimate — never hedge blind."""
        health = self._peers.get(peer)
        if health is None or health.latency.value is None:
            return None
        return health.latency.value * -math.log(1.0 - quantile)

    # -- reporting -------------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Whole-run engagement totals (merged into the RunProfile)."""
        return dict(self.counts)
