"""Experiment wiring: build a configured system and run it to completion.

The run protocol follows Section VI: simulate until the system is in a
stable state (every client cache is full, capped by ``warmup_max_time``),
then start recording and keep going until every client has completed at
least ``measure_requests`` further requests (capped by ``max_sim_time``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.client import MobileHost
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Metrics, Results
from repro.core.server import MobileSupportStation
from repro.core.tcg import TCGManager
from repro.data.server_db import ServerDatabase
from repro.data.workload import build_access_patterns
from repro.mobility.field import build_group_mobility
from repro.mobility.geometry import Rectangle
from repro.net.channel import ServerChannel
from repro.net.faults import FaultInjector
from repro.net.message import MessageSizes
from repro.net.health import COUNTER_NAMES, PeerHealthTracker
from repro.net.ndp import NeighborDiscovery
from repro.net.p2p import P2PNetwork
from repro.net.power import PowerLedger
from repro.policies import factory as policy_factory
from repro.sim.kernel import Environment
from repro.sim.profile import RunProfile, wall_clock
from repro.sim.random import RandomStreams
from repro.signatures.bloom import SignatureScheme

__all__ = ["Simulation", "run_simulation"]

#: Simulated seconds between termination-condition checks.
_CHUNK = 10.0


class Simulation:
    """One fully wired simulated mobile environment.

    ``monitor`` optionally attaches a
    :class:`~repro.check.monitor.InvariantMonitor`: its hook points are
    threaded through the kernel, the clients, the MSS, the NDP and the
    TCG manager, and a periodic audit process sweeps the global
    invariants.  Without a monitor every hook collapses to a dormant
    ``is None`` branch and the simulated outcome is bit-identical.

    ``observer`` optionally attaches a :class:`~repro.obs.session.Observer`
    the same way: its tracer is threaded through the clients, the MSS,
    the NDP and the TCG manager, and its sampler runs as a periodic
    audit-style kernel process.  Observation is read-only — an observed
    run produces identical :class:`Results` fields.
    """

    def __init__(self, config: SimulationConfig, monitor=None, observer=None):
        self.config = config
        self.monitor = monitor
        self.observer = observer
        tracer = observer.tracer if observer is not None else None
        if monitor is not None:
            monitor.bind(config)
        self.env = Environment(monitor=monitor)
        self.streams = RandomStreams(config.seed)
        self.metrics = Metrics(config.scheme.value)

        area = Rectangle(config.area_width, config.area_height)
        self.field, self.group_of = build_group_mobility(
            self.streams.stream("mobility"),
            config.n_clients,
            config.group_size,
            area,
            config.v_min,
            config.v_max,
            pause_time=config.pause_time,
            group_span=config.group_span,
            resolution=config.position_resolution,
        )
        self.ledger = PowerLedger(config.n_clients)
        # The injector is only built when the plan can actually do anything,
        # so an all-zero plan leaves the hot paths on their faults-is-None
        # short-circuits and advances no RNG stream (bit-identical runs).
        self.faults: Optional[FaultInjector] = None
        if config.faults.enabled:
            self.faults = FaultInjector(
                config.faults, self.streams, config.n_clients
            )
        self.network = P2PNetwork(
            self.env,
            self.field,
            config.bw_p2p,
            config.tran_range,
            self.ledger,
            faults=self.faults,
        )
        self.channel = ServerChannel(
            self.env, config.bw_downlink, config.bw_uplink, faults=self.faults
        )
        self.database = ServerDatabase(
            self.env,
            self.streams.stream("updates"),
            config.n_data,
            update_rate=config.data_update_rate,
            alpha=config.alpha,
            examine_interval=config.examine_interval,
        )
        # What makes a scheme group-based: MSS-side TCG discovery
        # (Algorithms 1-3) and the cache signatures exchanged inside a TCG.
        self.tcg: Optional[TCGManager] = None
        self.signature_scheme: Optional[SignatureScheme] = None
        if config.scheme.group_based:
            self.tcg = TCGManager(
                config.n_clients,
                config.n_data,
                config.distance_threshold,
                config.similarity_threshold,
                config.omega,
                monitor=monitor,
                tracer=tracer,
            )
            self.signature_scheme = SignatureScheme(
                self.streams.stream("hash"),
                config.signature_bits,
                config.signature_hashes,
            )
        self.server = MobileSupportStation(
            self.env, config, self.database, tcg=self.tcg, monitor=monitor,
            tracer=tracer,
        )
        self.ndp: Optional[NeighborDiscovery] = None
        if config.ndp_enabled:
            self.ndp = NeighborDiscovery(
                self.env,
                self.network,
                beacon_interval=config.beacon_interval,
                miss_limit=config.beacon_miss_limit,
                monitor=monitor,
                tracer=tracer,
            )
        sizes = MessageSizes(data=config.data_size)
        patterns = build_access_patterns(
            self.streams.stream("workload"),
            self.group_of,
            config.n_data,
            config.access_range,
            config.theta,
        )
        # Failure-aware retrieve layer (repro.net.health): trackers exist
        # only when some knob moved off its golden default, so a default
        # configuration constructs nothing, draws from no new stream, and
        # stays bit-identical.  Only cooperative schemes retrieve from
        # peers, so LC never gets a tracker.
        self._trackers: List[Optional[PeerHealthTracker]] = [None] * config.n_clients
        if config.health_enabled and config.scheme.cooperative:
            policy_rng = (
                self.streams.stream("peer-policy")
                if policy_factory.needs_rng(config, "peer-scoring")
                else None
            )
            self._trackers = [
                PeerHealthTracker(
                    breaker_threshold=config.breaker_threshold,
                    breaker_cooldown=config.breaker_cooldown,
                    policy=config.peer_policy,
                    rng=policy_rng,
                )
                for _ in range(config.n_clients)
            ]
        jitter_rng = (
            self.streams.stream("retry-jitter") if config.retry_jitter > 0 else None
        )
        # Shared stream for stochastic admission policies; deterministic
        # policies (every scheme default) create no stream at all.
        admission_rng = (
            self.streams.stream("admission-policy")
            if policy_factory.needs_rng(config, "admission")
            else None
        )
        self.clients: List[MobileHost] = [
            MobileHost(
                index,
                self.env,
                config,
                self.network,
                self.channel,
                self.server,
                patterns[index],
                self.metrics,
                self.streams.stream(f"client-{index}"),
                sizes,
                signature_scheme=self.signature_scheme,
                ndp=self.ndp,
                monitor=monitor,
                tracer=tracer,
                health=self._trackers[index],
                jitter_rng=jitter_rng,
                admission_rng=admission_rng,
            )
            for index in range(config.n_clients)
        ]
        if self.faults is not None and config.faults.crash.enabled:
            self.env.process(self._crash_daemon())
        if monitor is not None:
            self.env.process(self._audit_loop())
        if observer is not None:
            observer.attach(self)

    def _audit_loop(self):
        """Periodic global invariant sweep (monitored runs only)."""
        while True:
            yield self.env.timeout(self.monitor.audit_interval)
            self.monitor.audit(self)

    # -- fault processes ----------------------------------------------------------

    def _crash_daemon(self):
        """Crash-stop outages: pick victims from a Poisson process.

        A victim that is already offline (disconnected or still down from a
        previous crash) is skipped — the exponential clock keeps ticking so
        the aggregate crash rate is independent of how many hosts are up.
        """
        faults = self.faults
        while True:
            yield self.env.timeout(faults.next_crash_delay())
            victim = self.clients[faults.crash_victim()]
            if not victim.connected:
                continue
            faults.crashes += 1
            self.env.process(self._host_outage(victim))

    def _host_outage(self, victim: MobileHost):
        """One crash-stop outage of one host, then recovery."""
        victim.crash()
        yield self.env.timeout(self.faults.outage_duration())
        yield from victim.recover()

    # -- run protocol -------------------------------------------------------------

    def caches_full(self) -> bool:
        return all(len(client.cache) >= self.config.cache_size for client in self.clients)

    def warm_up(self) -> float:
        """Run to a stable state: caches full (or the warm-up cap) and at
        least ``warmup_min_time`` elapsed (TCG discovery and signature
        collection settle during this window); returns now."""
        while (
            not self.caches_full() and self.env.now < self.config.warmup_max_time
        ):
            self.env.run(until=self.env.now + _CHUNK)
        if self.env.now < self.config.warmup_min_time:
            self.env.run(until=self.config.warmup_min_time)
        return self.env.now

    def measure(self) -> Results:
        """Record until every client completed ``measure_requests`` requests."""
        config = self.config
        self.metrics.start_recording(self.env.now, self.ledger, config.n_clients)
        while (
            self.metrics.min_client_requests() < config.measure_requests
            and self.env.now < config.max_sim_time
        ):
            self.env.run(until=self.env.now + _CHUNK)
        return self.metrics.results(
            self.env.now, self.ledger, count_beacon_power=config.count_beacon_power
        )

    def run(self) -> Results:
        self.warm_up()
        return self.measure()

    def profile(self, wall_time: float) -> RunProfile:
        """Snapshot the run's timing and per-subsystem work counters."""
        counters = {
            "p2p_broadcasts": self.network.broadcasts,
            "p2p_unicasts": self.network.unicasts,
            "p2p_failed_unicasts": self.network.failed_unicasts,
            "server_uplink_requests": self.channel.uplink_requests,
            "server_downlink_requests": self.channel.downlink_requests,
            "server_uplink_wait": self.channel.uplink_wait,
            "server_downlink_wait": self.channel.downlink_wait,
            "snapshot_rebuilds": self.field.snapshot_rebuilds,
            "snapshot_refreshes": self.field.snapshot_refreshes,
            "snapshot_reuses": self.field.snapshot_reuses,
            "ndp_rounds": self.ndp.rounds if self.ndp is not None else 0,
            "beacons_sent": self.ndp.beacons_sent if self.ndp is not None else 0,
            "kernel_freelist_hits": self.env.freelist_hits,
        }
        if self.faults is not None:
            counters.update(self.faults.counters())
        if any(tracker is not None for tracker in self._trackers):
            # Health counters appear only when the layer is on, so golden
            # profiles keep their exact pre-health counter set.
            for name in COUNTER_NAMES:
                counters[f"health_{name}"] = sum(
                    tracker.counts[name]
                    for tracker in self._trackers
                    if tracker is not None
                )
        return RunProfile(
            wall_time=wall_time,
            events=self.env.events_processed,
            counters=counters,
        )


def run_simulation(config: SimulationConfig, monitor=None, observer=None) -> Results:
    """Build and run one experiment; the main public entry point.

    The returned :class:`Results` carries a :class:`RunProfile` (wall-clock,
    events processed, per-subsystem counters) in its ``profile`` field.
    ``monitor`` optionally attaches an
    :class:`~repro.check.monitor.InvariantMonitor`; its final audit runs
    after the measurement window completes.  ``observer`` optionally
    attaches a :class:`~repro.obs.session.Observer` (span tracer +
    time-series sampler); it is finalized — open spans swept, the closing
    sample taken — before this function returns.
    """
    start = wall_clock()
    simulation = Simulation(config, monitor=monitor, observer=observer)
    results = simulation.run()
    if monitor is not None:
        monitor.finalize(simulation)
    if observer is not None:
        observer.finalize(simulation)
    elapsed = wall_clock() - start
    results.profile = simulation.profile(elapsed)
    return results


def compare_schemes(
    config: SimulationConfig,
    schemes: Optional[List[CachingScheme]] = None,
) -> Dict[str, Results]:
    """Run the same configuration under several schemes (same seed)."""
    if schemes is None:
        schemes = [CachingScheme.LC, CachingScheme.CC, CachingScheme.GC]
    return {
        scheme.value: run_simulation(config.with_scheme(scheme))
        for scheme in schemes
    }
