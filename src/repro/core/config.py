"""Simulation parameters (the paper's Table II) and scheme selection.

Default values follow Table II where the OCR of the source text is legible
and the reconstruction table in DESIGN.md otherwise.  Everything is a plain
dataclass field so experiments override parameters with
``dataclasses.replace``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from typing import Dict

from repro.net.faults import CrashFaults, FaultPlan, LinkFaults
from repro.policies import SCHEME_DEFAULTS, registry as policy_registry

__all__ = ["CachingScheme", "SimulationConfig"]


class CachingScheme(Enum):
    """The three schemes compared in Section VI."""

    LC = "LC"  # conventional caching: no peer cooperation
    CC = "CC"  # standard COCA
    GC = "GC"  # GroCoCa

    @property
    def cooperative(self) -> bool:
        return self is not CachingScheme.LC

    @property
    def group_based(self) -> bool:
        return self is CachingScheme.GC


@dataclass
class SimulationConfig:
    """Everything needed to reproduce one simulated experiment."""

    # -- scheme under test -------------------------------------------------------
    scheme: CachingScheme = CachingScheme.GC

    # -- population and data (Table II) ------------------------------------------
    n_clients: int = 100
    n_data: int = 10_000
    data_size: int = 3072  # bytes (DataSize = 3 KB)
    cache_size: int = 100  # items
    access_range: int = 1000  # items per motion group
    theta: float = 0.5  # Zipf skewness
    data_update_rate: float = 0.0  # items / second across the database

    # -- geometry and mobility ----------------------------------------------------
    area_width: float = 1000.0  # metres
    area_height: float = 1000.0
    tran_range: float = 100.0  # P2P transmission range (TranRange)
    group_size: int = 5  # MHs per motion group (GroupSize)
    group_span: float = 50.0  # RPGM offset radius
    v_min: float = 1.0  # m/s
    v_max: float = 5.0
    pause_time: float = 1.0  # seconds
    position_resolution: float = 0.1  # snapshot quantum (s); 0 = exact

    # -- channels -------------------------------------------------------------------
    bw_downlink: float = 2_500_000.0  # bits/s (BW_server downlink)
    bw_uplink: float = 200_000.0  # bits/s (BW_server uplink)
    bw_p2p: float = 2_000_000.0  # bits/s (BW_P2P)
    hop_dist: int = 2  # HopDist: P2P search depth

    # -- workload -----------------------------------------------------------------------
    think_time_mean: float = 1.0  # exp interarrival between accesses

    # -- disconnection --------------------------------------------------------------------
    # DiscTime is drawn per disconnection; with ~1 request/second a client
    # disconnects every 1/p_disc requests, so these 1-5 s bounds (Table II)
    # yield offline fractions of ~10-45% across the Fig. 8 sweep.
    p_disc: float = 0.0
    disc_min: float = 1.0  # seconds (DiscTime lower bound)
    disc_max: float = 5.0

    # -- COCA protocol ---------------------------------------------------------------------
    congestion_phi: float = 2.0  # φ: initial timeout scale-up
    deviation_phi: float = 3.0  # φ': stddev multiplier for adaptive timeout

    # -- fault injection and recovery --------------------------------------------------------
    # The all-zero default plan is a strict no-op (no RNG stream advanced);
    # see repro.net.faults.  The retry limits bound the protocol's recovery
    # effort: 0 search/retrieve retries reproduces the paper's one-shot
    # protocol exactly, while the uplink retry only ever engages when a
    # fault plan actually loses server-channel messages.
    faults: FaultPlan = field(default_factory=FaultPlan)
    search_retry_limit: int = 0  # re-floods of an unanswered search
    retrieve_retry_limit: int = 0  # extra retrieves over other reply targets
    uplink_retry_limit: int = 2  # server-transaction retries on message loss
    retry_backoff_base: float = 0.05  # s; doubles on every retry
    # ±fraction of each backoff delay, drawn from the dedicated
    # "retry-jitter" stream; 0 keeps retries unjittered (and bit-identical
    # to configs recorded before the field existed).
    retry_jitter: float = 0.0

    # -- failure-aware retrieve (repro.net.health) --------------------------------------------
    # The defaults reproduce today's retrieve path exactly: first-reply
    # arrival order, no breakers, no hedging, no deadline budget, crash
    # failover off.  Any non-default value flips ``health_enabled`` and
    # builds a PeerHealthTracker per host.
    peer_policy: str = "arrival"  # key into the "peer-scoring" namespace
    breaker_threshold: int = 0  # consecutive failures to trip; 0 = off
    breaker_cooldown: float = 2.0  # s from trip to the half-open probe
    hedge_quantile: float = 0.0  # EWMA-latency quantile to hedge at; 0 = off
    retrieve_deadline: float = 0.0  # per-query retrieve budget (s); 0 = off
    crash_failover: bool = False  # fail over on a replier's down-transition

    # -- GroCoCa: TCG discovery -----------------------------------------------------------
    distance_threshold: float = 100.0  # Δ
    # δ: Section IV-B advises low thresholds because the MSS only samples
    # the access pattern; sampled cosines converge as T·Σp² / (1 + T·Σp²)
    # with T observed accesses, so 0.1 lets TCGs form for every Fig. 4
    # access range within the run lengths used here.
    similarity_threshold: float = 0.1
    omega: float = 0.5  # ω: EWMA weight for weighted average distance
    alpha: float = 0.5  # α: EWMA weight for data update intervals
    explicit_update_period: float = 30.0  # τ_P
    explicit_update_portion: float = 0.25  # ρ_P

    # -- GroCoCa: signatures ------------------------------------------------------------------
    signature_bits: int = 10_000  # σ
    signature_hashes: int = 2  # k
    counter_bits: int = 4  # π_c (own-cache counting bloom filter)
    recollect_batch: int = 1  # departures tolerated before recollection

    # -- GroCoCa: cooperative cache management ----------------------------------------------------
    replace_candidate: int = 10  # ReplaceCandidate
    replace_delay: int = 2  # ReplaceDelay (SingletTTL initial value)
    signature_filtering: bool = True  # ablation A4
    signature_compression: bool = True  # ablation A3

    # -- policy overrides (repro.policies) --------------------------------------------------------
    # Empty string = this scheme's default (policies.SCHEME_DEFAULTS), so a
    # config follows its scheme through ``with_scheme``; a non-empty value
    # must name a key of its table and overrides that axis for every host.
    admission_policy: str = ""  # "admission" key; ablation A1 is GC + "always"
    replacement_policy: str = ""  # "replacement" key; ablation A2 is GC + "lru"

    # -- NDP ---------------------------------------------------------------------------------------
    ndp_enabled: bool = True
    beacon_interval: float = 1.0
    beacon_miss_limit: int = 3

    # -- consistency ----------------------------------------------------------------------------------
    examine_interval: float = 30.0  # idle-item EWMA examination period

    # -- run control -------------------------------------------------------------------------------------
    seed: int = 1
    warmup_min_time: float = 300.0  # extra settling time (TCG formation)
    warmup_max_time: float = 600.0  # give up waiting for full caches here
    measure_requests: int = 200  # per-client requests beyond warmup
    max_sim_time: float = 20_000.0  # hard stop (simulated seconds)
    count_beacon_power: bool = False  # include NDP beacons in power/GCH

    def __post_init__(self):
        # NaN fails no ``<`` test and +/-inf passes every lower bound; a float
        # count, a bool hop limit or a "yes" flag passes or fails them by
        # accident.  Reject all of these here, for every field at once,
        # before the per-field contracts.
        for spec in dataclasses.fields(self):
            name, kind = spec.name, spec.type
            value = getattr(self, name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if kind in ("int", "float"):
                number = numbers.Integral if kind == "int" else numbers.Real
                valid = isinstance(value, number) and not isinstance(value, bool)
            elif kind in ("bool", "str"):
                valid = isinstance(value, bool if kind == "bool" else str)
            else:
                continue  # scheme, faults: checked below
            if not valid:
                raise TypeError(
                    f"{name} must be {kind}, got {type(value).__name__} {value!r}"
                )
        if not isinstance(self.scheme, CachingScheme):
            raise ValueError("scheme must be a CachingScheme")
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.n_data < 1:
            raise ValueError("n_data must be >= 1")
        if self.data_size < 1:
            raise ValueError("data_size must be >= 1 byte")
        if self.cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if not 1 <= self.access_range <= self.n_data:
            raise ValueError("access_range must be in [1, n_data]")
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.data_update_rate < 0:
            raise ValueError("data_update_rate must be >= 0")
        if self.area_width <= 0 or self.area_height <= 0:
            raise ValueError("area dimensions must be positive")
        if not 0 < self.v_min <= self.v_max:
            raise ValueError("speeds must satisfy 0 < v_min <= v_max")
        if self.group_span < 0:
            raise ValueError("group_span must be >= 0")
        if self.pause_time < 0:
            raise ValueError("pause_time must be >= 0")
        if self.position_resolution < 0:
            raise ValueError("position_resolution must be >= 0")
        if self.distance_threshold <= 0:
            raise ValueError("distance_threshold must be positive")
        if not 0.0 <= self.similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0, 1]")
        if self.explicit_update_period <= 0:
            raise ValueError("explicit_update_period must be positive")
        if self.signature_bits < 1:
            raise ValueError("signature_bits must be >= 1")
        if self.signature_hashes < 1:
            raise ValueError("signature_hashes must be >= 1")
        if self.counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        if self.recollect_batch < 1:
            raise ValueError("recollect_batch must be >= 1")
        if self.beacon_miss_limit < 1:
            raise ValueError("beacon_miss_limit must be >= 1")
        if self.examine_interval <= 0:
            raise ValueError("examine_interval must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # warmup_max_time caps the wait-for-full-caches phase; warmup_min_time
        # is an independent floor on total warm-up and may legally exceed it
        # (Fig. 4/7 sweeps stretch the settling window past the cache cap).
        if self.warmup_min_time < 0 or self.warmup_max_time < 0:
            raise ValueError("warmup times must be >= 0")
        if self.max_sim_time <= max(self.warmup_min_time, self.warmup_max_time):
            raise ValueError("max_sim_time must exceed the warm-up window")
        if self.hop_dist < 1:
            raise ValueError("hop_dist must be >= 1")
        if not 0.0 <= self.p_disc <= 1.0:
            raise ValueError("p_disc must be a probability")
        if not 0 <= self.disc_min <= self.disc_max:  # `not`: NaN fails it too
            raise ValueError("disconnection times must satisfy 0 <= disc_min <= disc_max")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError("omega must be in [0, 1]")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if not 0.0 <= self.explicit_update_portion <= 1.0:
            raise ValueError("explicit_update_portion must be in [0, 1]")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if self.replace_candidate < 1:
            raise ValueError("replace_candidate must be >= 1")
        if self.replace_delay < 1:
            raise ValueError("replace_delay must be >= 1")
        if self.measure_requests < 1:
            raise ValueError("measure_requests must be >= 1")
        if self.think_time_mean <= 0:
            raise ValueError("think_time_mean must be positive")
        if self.beacon_interval <= 0:
            raise ValueError("beacon_interval must be positive")
        if self.congestion_phi <= 0:
            raise ValueError("congestion_phi must be positive")
        if self.deviation_phi < 0:
            raise ValueError("deviation_phi must be >= 0")
        if self.tran_range <= 0:
            raise ValueError("tran_range must be positive")
        if self.bw_downlink <= 0 or self.bw_uplink <= 0 or self.bw_p2p <= 0:
            raise ValueError("bandwidths must be positive")
        if not isinstance(self.faults, FaultPlan):
            raise ValueError("faults must be a FaultPlan")
        if self.search_retry_limit < 0:
            raise ValueError("search_retry_limit must be >= 0")
        if self.retrieve_retry_limit < 0:
            raise ValueError("retrieve_retry_limit must be >= 0")
        if self.uplink_retry_limit < 0:
            raise ValueError("uplink_retry_limit must be >= 0")
        if self.retry_backoff_base <= 0:
            raise ValueError("retry_backoff_base must be positive")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ValueError("retry_jitter must be in [0, 1)")
        for namespace, value in (
            ("admission", self.admission_policy),
            ("replacement", self.replacement_policy),
            ("peer-scoring", self.peer_policy),
        ):
            if not value and namespace in SCHEME_DEFAULTS[self.scheme.value]:
                continue  # "" = this scheme's default, where it has one
            if value not in policy_registry.available(namespace):
                raise ValueError(
                    f"unknown {namespace} policy {value!r}; available: "
                    f"{', '.join(policy_registry.available(namespace))}"
                )
        if self.replacement_policy == "grococa" and not self.scheme.group_based:
            raise ValueError(
                "replacement policy 'grococa' needs the GroCoCa signature "
                "scheme (scheme GC)"
            )
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be >= 0")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be positive")
        if not 0.0 <= self.hedge_quantile < 1.0:
            raise ValueError("hedge_quantile must be in [0, 1)")
        if self.retrieve_deadline < 0:
            raise ValueError("retrieve_deadline must be >= 0")

    @property
    def health_enabled(self) -> bool:
        """Whether the failure-aware retrieve layer is active.

        True when any knob departs from today's behaviour; the default
        config keeps this False so no :class:`~repro.net.health.\
PeerHealthTracker` is built and runs stay bit-identical to the goldens.
        """
        return (
            self.peer_policy != "arrival"
            or self.breaker_threshold > 0
            or self.hedge_quantile > 0.0
            or self.retrieve_deadline > 0.0
            or self.crash_failover
        )

    def with_scheme(self, scheme: CachingScheme) -> "SimulationConfig":
        """A copy of this config running a different scheme."""
        return dataclasses.replace(self, scheme=scheme)

    def replace(self, **overrides) -> "SimulationConfig":
        """A copy with the given fields overridden."""
        return dataclasses.replace(self, **overrides)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dict: enums become values, the fault plan nests.

        The exact inverse of :meth:`from_dict`; the result-cache keys and
        golden-trace fixtures both serialise configs through this form.
        """
        payload = dataclasses.asdict(self)
        payload["scheme"] = self.scheme.value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationConfig":
        """Rebuild a config from :meth:`as_dict` output (e.g. JSON).

        A malformed ``faults`` block fails with a ``ValueError`` naming the
        offending path (``faults.crash``, ``faults.p2p.loss``, ...).
        """
        _reject_unknown("SimulationConfig", payload, cls)
        data = dict(payload)
        data["scheme"] = CachingScheme(data["scheme"])
        faults = data.get("faults")
        if isinstance(faults, dict):
            _reject_unknown("faults", faults, FaultPlan)
            parts = {}
            for spec in dataclasses.fields(FaultPlan):
                path = f"faults.{spec.name}"
                if spec.name not in faults:
                    raise ValueError(f"{path} is missing")
                part = CrashFaults if spec.name == "crash" else LinkFaults
                parts[spec.name] = _fault_part(path, faults[spec.name], part)
            data["faults"] = FaultPlan(**parts)
        return cls(**data)


def _reject_unknown(owner: str, payload: Dict[str, object], kind: type) -> None:
    """Name every key of ``payload`` that is not a field of ``kind``."""
    known = sorted(spec.name for spec in dataclasses.fields(kind))
    if unknown := sorted(set(payload).difference(known)):
        raise ValueError(
            f"unknown {owner} field(s): {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(known)}"
        )


def _fault_part(path: str, payload: object, kind: type) -> LinkFaults | CrashFaults:
    """One :class:`FaultPlan` component from its dict form; errors name ``path``."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"{path} must be a mapping, got {type(payload).__name__} {payload!r}"
        )
    _reject_unknown(path, payload, kind)
    for name, value in payload.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ValueError(
                f"{path}.{name} must be a number, got {type(value).__name__} {value!r}"
            )
    try:
        return kind(**payload)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None
