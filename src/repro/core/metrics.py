"""Metrics in the paper's reporting vocabulary.

The four request outcomes of Section III (local cache hit, global cache
hit, server request, access failure) plus access latency and the power
ledger give every series the evaluation section plots:

* access latency (s),
* server request ratio (%),
* global / local cache hit ratios (%),
* power consumption per global cache hit (µW·s).

Recording begins only after warm-up (``start_recording``); power is taken
as the ledger delta over the recording window.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Dict, Optional, Tuple

from repro.net.power import PowerLedger
from repro.sim.profile import RunProfile
from repro.sim.stats import WelfordAccumulator

__all__ = [
    "COUNTED_EVENTS",
    "PERF_COUNTER_PREFIXES",
    "Metrics",
    "RequestOutcome",
    "Results",
    "results_digest",
    "results_to_dict",
]

#: The counted protocol events: tracer-instant name -> counted kind.  The
#: three retry kinds feed ``Results.<kind>_retries``; the rest (the
#: failure-aware retrieve layer, repro.net.health) key :attr:`Results.health`
#: and are absent when the layer is off, keeping pre-health fixtures
#: comparable.  :meth:`Metrics.count` counts, ``MobileHost._mark`` emits
#: and the trace contract reconciles by this one table.
COUNTED_EVENTS = {
    "search-retry": "search",
    "retrieve-retry": "retrieve",
    "uplink-retry": "uplink",
    "retrieve-hedge": "hedge",
    "hedge-win": "hedge_win",
    "breaker-open": "breaker_trip",
    "breaker-probe": "breaker_probe",
    "budget-exhausted": "budget_exhausted",
    "fast-failover": "fast_failover",
}


class RequestOutcome(Enum):
    """Section III's four outcomes of a client request; a value is the
    index of the outcome's counters in :class:`Metrics`."""

    LOCAL_HIT = 0
    GLOBAL_HIT = 1
    SERVER = 2
    FAILURE = 3


# Module constants: ``record_request`` runs once per request, and loading a
# member off the Enum class is a class-attribute lookup each time.
_GLOBAL_HIT = RequestOutcome.GLOBAL_HIT
_FAILURE = RequestOutcome.FAILURE


@dataclass
class Results:
    """One simulated experiment's summary (one point of a paper figure)."""

    scheme: str
    requests: int
    local_hits: int
    global_hits: int
    global_hits_tcg: int
    server_requests: int
    failures: int
    access_latency: float
    latency_stddev: float
    power_data: float
    power_signature: float
    power_beacon: float
    power_per_gch: float
    validations: int
    validation_refreshes: int
    bypassed_searches: int
    peer_searches: int
    measured_time: float
    sim_time: float
    #: recovery-effort counters (all zero in the fault-free model):
    #: re-floods of unanswered searches, retrieves re-sent to another reply
    #: target, server transactions re-tried after a lost channel message,
    #: and peer searches that fell back to the MSS.
    search_retries: int = 0
    retrieve_retries: int = 0
    uplink_retries: int = 0
    mss_fallbacks: int = 0
    #: failure-aware retrieve counters (hedges, breaker trips, ...), keyed
    #: by the non-retry kinds of :data:`COUNTED_EVENTS`; empty (``{}`` in a
    #: golden fixture) whenever the health layer is disabled.
    health: Dict[str, int] = field(default_factory=dict)
    #: per-outcome (count, mean latency) pairs, keyed by outcome name
    latency_by_outcome: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    #: wall-clock / events-processed instrumentation of the run that
    #: produced this result.  Excluded from equality: two runs of the same
    #: configuration are "identical" over the simulated outcome, not timing.
    profile: Optional[RunProfile] = field(default=None, compare=False, repr=False)

    @property
    def lch_ratio(self) -> float:
        """% of requests answered from the local cache."""
        return 100.0 * self.local_hits / self.requests if self.requests else 0.0

    @property
    def gch_ratio(self) -> float:
        """% of requests answered by peers."""
        return 100.0 * self.global_hits / self.requests if self.requests else 0.0

    @property
    def server_request_ratio(self) -> float:
        """% of requests that had to be served by the MSS."""
        return 100.0 * self.server_requests / self.requests if self.requests else 0.0

    @property
    def failure_ratio(self) -> float:
        return 100.0 * self.failures / self.requests if self.requests else 0.0


#: Profile-counter name prefixes kept out of a run's outcome form.  These
#: counters describe how the simulator computed the outcome (position cache
#: reuse, event-queue internals), not the simulated outcome itself, so a
#: perf refactor may legitimately move them while every semantic counter
#: stays frozen.  :func:`results_to_dict` strips them, so a golden fixture
#: or a trace manifest never stores them.
PERF_COUNTER_PREFIXES: Tuple[str, ...] = ("snapshot_", "kernel_")


def results_to_dict(results: Results) -> Dict[str, object]:
    """JSON-ready dict of every deterministic :class:`Results` field: the
    outcome form a golden fixture and a trace manifest store.

    The ``profile`` field is replaced by its deterministic core — kernel
    events processed plus the per-subsystem work counters — because
    wall-clock timing legitimately varies between runs.  Counters matching
    :data:`PERF_COUNTER_PREFIXES` are implementation detail and excluded.
    """
    payload = asdict(results)
    payload.pop("profile", None)
    profile = results.profile
    if profile is not None:
        payload["profile"] = {
            "events": profile.events,
            "counters": {
                name: value
                for name, value in sorted(profile.counters.items())
                if not name.startswith(PERF_COUNTER_PREFIXES)
            },
        }
    # Normalise tuples (latency_by_outcome values) the way JSON will.
    return json.loads(json.dumps(payload, sort_keys=True))


def results_digest(results: Results) -> str:
    """SHA-256 of every simulated statistic: the canonical JSON of
    :class:`Results` without its host-timed ``profile``.

    The same form as ``perfbench.child.results_digest``, so a figure
    sidecar, a golden run and a perfbench report name one outcome alike.
    """
    payload = asdict(results)
    del payload["profile"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class Metrics:
    """Accumulates outcomes; produces :class:`Results`.

    Per-request records (percentiles, per-host timelines) are the
    ``request`` spans of an attached :class:`~repro.obs.session.Observer`.
    """

    def __init__(self, scheme: str):
        self.scheme = scheme
        self.recording = False
        self.requests = 0
        # Indexed by an outcome's ``_value_``: ``record_request`` runs once
        # per request, and hashing an Enum member is a Python call.
        self._counts = [0] * len(RequestOutcome)
        self.global_hits_tcg = 0
        self.validations = 0
        self.validation_refreshes = 0
        self.bypassed_searches = 0
        self.peer_searches = 0
        self.retries = {"search": 0, "retrieve": 0, "uplink": 0}
        self.mss_fallbacks = 0
        self.health_events: Dict[str, int] = {}
        self.latency = WelfordAccumulator()
        self._latencies = [WelfordAccumulator() for _ in RequestOutcome]
        self.per_client_requests: Optional[list] = None
        self._record_start_time = 0.0
        self._power_baseline: Dict[str, float] = {}

    @property
    def outcomes(self) -> Dict[RequestOutcome, int]:
        """Requests recorded per outcome (a fresh dict)."""
        return {o: self._counts[o._value_] for o in RequestOutcome}

    @property
    def latency_by_outcome(self) -> Dict[RequestOutcome, WelfordAccumulator]:
        """The latency accumulator of each outcome."""
        return {o: self._latencies[o._value_] for o in RequestOutcome}

    def start_recording(
        self, now: float, ledger: PowerLedger, n_clients: int
    ) -> None:
        """End of warm-up: zero every counter and snapshot the ledger."""
        self.recording = True
        self._record_start_time = now
        self._power_baseline = ledger.by_purpose()
        self.per_client_requests = [0] * n_clients

    def record_request(
        self,
        client: int,
        outcome: RequestOutcome,
        latency: float,
        from_tcg: bool = False,
    ) -> None:
        if not self.recording:
            return
        self.requests += 1
        index = outcome._value_
        self._counts[index] += 1
        if outcome is _GLOBAL_HIT and from_tcg:
            self.global_hits_tcg += 1
        if outcome is not _FAILURE:
            # A failed access never completed: its elapsed time is how long
            # the host tried, not an access latency, so it is kept in the
            # per-outcome breakdown but excluded from the headline mean.
            self.latency.add(latency)
        self._latencies[index].add(latency)
        if self.per_client_requests is not None:
            self.per_client_requests[client] += 1

    def record_validation(self, refreshed: bool) -> None:
        if not self.recording:
            return
        self.validations += 1
        if refreshed:
            self.validation_refreshes += 1

    def record_search(self, bypassed: bool) -> None:
        if not self.recording:
            return
        if bypassed:
            self.bypassed_searches += 1
        else:
            self.peer_searches += 1

    def count(self, event: str) -> None:
        """Count one protocol event (a key of :data:`COUNTED_EVENTS`)."""
        kind = COUNTED_EVENTS[event]
        if not self.recording:
            return
        if kind in self.retries:
            self.retries[kind] += 1
        else:
            self.health_events[kind] = self.health_events.get(kind, 0) + 1

    def record_fallback(self) -> None:
        """Count one peer search that had to fall back to the MSS."""
        if not self.recording:
            return
        self.mss_fallbacks += 1

    def min_client_requests(self) -> int:
        if not self.per_client_requests:
            return 0
        return min(self.per_client_requests)

    def results(
        self,
        now: float,
        ledger: PowerLedger,
        count_beacon_power: bool = False,
    ) -> Results:
        by_purpose = ledger.by_purpose()
        baseline = self._power_baseline or {key: 0.0 for key in by_purpose}
        power = {key: by_purpose[key] - baseline.get(key, 0.0) for key in by_purpose}
        outcomes = self.outcomes
        gch = outcomes[RequestOutcome.GLOBAL_HIT]
        counted = power["data"] + power["signature"]
        if count_beacon_power:
            counted += power["beacon"]
        power_per_gch = counted / gch if gch else math.inf
        per_outcome = {
            outcome.name: (acc.count, acc.mean)
            for outcome, acc in self.latency_by_outcome.items()
            if acc.count
        }
        return Results(
            scheme=self.scheme,
            requests=self.requests,
            local_hits=outcomes[RequestOutcome.LOCAL_HIT],
            global_hits=gch,
            global_hits_tcg=self.global_hits_tcg,
            server_requests=outcomes[RequestOutcome.SERVER],
            failures=outcomes[RequestOutcome.FAILURE],
            access_latency=self.latency.mean,
            latency_stddev=self.latency.stddev,
            power_data=power["data"],
            power_signature=power["signature"],
            power_beacon=power["beacon"],
            power_per_gch=power_per_gch,
            validations=self.validations,
            validation_refreshes=self.validation_refreshes,
            bypassed_searches=self.bypassed_searches,
            peer_searches=self.peer_searches,
            measured_time=now - self._record_start_time,
            sim_time=now,
            search_retries=self.retries["search"],
            retrieve_retries=self.retries["retrieve"],
            uplink_retries=self.retries["uplink"],
            mss_fallbacks=self.mss_fallbacks,
            health=dict(self.health_events),
            latency_by_outcome=per_outcome,
        )
