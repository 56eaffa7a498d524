"""The failure-aware retrieve path end-to-end (client + simulation).

Covers the tentpole acceptance criteria: adaptive policies dominate
``arrival`` on mean query latency under bursty loss (3 seeds), the
breaker/hedge machinery engages under the invariant monitor, the trace
contract reconciles the new instants, crash fast-failover fires, and
jittered backoff stays deterministic.
"""

import sys
from pathlib import Path

import pytest

from repro.check.monitor import InvariantMonitor
from repro.core.client import _SearchState
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.simulation import Simulation, run_simulation
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults
from repro.obs.session import Observer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from trace_contract import check_trace  # noqa: E402

_BASE = dict(
    scheme=CachingScheme.GC,
    n_clients=8,
    n_data=200,
    access_range=40,
    cache_size=8,
    group_size=4,
    measure_requests=12,
    warmup_min_time=30.0,
    warmup_max_time=60.0,
    ndp_enabled=False,
)

_ADAPTIVE = dict(
    breaker_threshold=3,
    breaker_cooldown=2.0,
    hedge_quantile=0.9,
    retrieve_deadline=5.0,
    crash_failover=True,
    retry_jitter=0.1,
)


def _bursty_plan(loss=0.25):
    return FaultPlan(
        p2p=LinkFaults(
            loss=loss,
            burst_loss=min(1.0, 2.0 * loss),
            burst_on=0.05,
            burst_off=0.5,
        ),
        uplink=LinkFaults(loss=loss / 4.0),
        downlink=LinkFaults(loss=loss / 4.0),
        crash=CrashFaults(rate=0.0005, down_min=2.0, down_max=8.0),
    )


def _config(policy, seed, loss=0.25, **overrides):
    settings = dict(
        _BASE,
        seed=seed,
        faults=_bursty_plan(loss),
        search_retry_limit=1,
        retrieve_retry_limit=2,
        uplink_retry_limit=3,
    )
    if policy != "arrival":
        settings.update(_ADAPTIVE, peer_policy=policy)
    settings.update(overrides)
    return SimulationConfig(**settings)


def test_health_layer_off_by_default():
    config = SimulationConfig(**_BASE, seed=1)
    assert not config.health_enabled
    simulation = Simulation(config)
    assert all(client.health is None for client in simulation.clients)
    assert all(client._jitter_rng is None for client in simulation.clients)
    # No health counters pollute the profile of a legacy run.
    profile = simulation.profile(0.0)
    assert not any(name.startswith("health_") for name in profile.counters)


def test_any_adaptive_knob_enables_the_layer():
    for knob in (
        {"peer_policy": "least-pending"},
        {"breaker_threshold": 2},
        {"hedge_quantile": 0.5},
        {"retrieve_deadline": 1.0},
        {"crash_failover": True},
    ):
        config = SimulationConfig(**_BASE, seed=1, **knob)
        assert config.health_enabled, knob


SEEDS = (11, 12, 13)


@pytest.mark.parametrize("policy", ["least-pending", "latency-aware"])
def test_adaptive_policies_dominate_arrival_under_bursty_loss(policy):
    """ISSUE 7 acceptance: adaptive beats arrival at p_loss >= 0.2."""
    arrival = [
        run_simulation(_config("arrival", seed)).access_latency
        for seed in SEEDS
    ]
    adaptive = [
        run_simulation(_config(policy, seed)).access_latency for seed in SEEDS
    ]
    mean_arrival = sum(arrival) / len(arrival)
    mean_adaptive = sum(adaptive) / len(adaptive)
    assert mean_adaptive < mean_arrival, (
        f"{policy} mean latency {mean_adaptive:.4f} not better than "
        f"arrival {mean_arrival:.4f} (per-seed: {adaptive} vs {arrival})"
    )


def test_breakers_engage_and_monitor_stays_clean():
    monitor = InvariantMonitor(mode="collect")
    results = run_simulation(_config("latency-aware", 11), monitor=monitor)
    report = monitor.report()
    assert report.ok, [str(v) for v in report.violations]
    counters = results.profile.counters
    assert counters["health_breaker_trips"] > 0
    assert counters["health_breaker_probes"] > 0
    # Monitor hedge accounting agrees with the tracker totals.
    assert report.hedges == counters["health_hedges"]
    assert report.hedge_wins == counters["health_hedge_wins"]
    assert report.hedge_wins <= report.hedges


def test_trace_contract_reconciles_health_instants():
    observer = Observer(sample_period=5.0)
    results = run_simulation(_config("latency-aware", 12), observer=observer)
    problems = check_trace(
        observer.tracer.events, results=results, profile=results.profile
    )
    assert problems == [], "\n".join(problems)
    assert results.health.get("breaker_trip", 0) > 0


def test_jittered_backoff_is_deterministic_and_bounded():
    config = _config("latency-aware", 13)
    first = run_simulation(config)
    second = run_simulation(config)
    assert first == second  # same seed, same jitter draws, same outcome
    simulation = Simulation(config)
    host = simulation.clients[0]
    base = host.config.retry_backoff_base
    for _ in range(50):
        delay = host._backoff_delay(base)
        assert base * (1.0 - 0.1) <= delay <= base * (1.0 + 0.1)
    # Zero jitter: the delay is exactly the unjittered backoff.
    legacy = Simulation(SimulationConfig(**_BASE, seed=13))
    assert legacy.clients[0]._backoff_delay(base) == base


def test_crash_fast_failover_fires_immediately():
    """A replier crashing between replying and serving is detected via the
    down-watcher instead of burning the full data guard."""
    config = SimulationConfig(
        **_BASE,
        seed=5,
        peer_policy="latency-aware",
        crash_failover=True,
        think_time_mean=1e9,  # quiesce background traffic
    )
    simulation = Simulation(config)
    env = simulation.env
    requester = simulation.clients[0]
    replier = simulation.clients[1]
    state = _SearchState(item=0, started=0.0, reply_event=env.event())
    reply = {"peer": replier.index, "path": [0, replier.index]}
    state.replies.append(reply)
    outcome = {}

    def retrieve():
        data = yield from requester._retrieve_with_fallback("sid", state, reply)
        outcome["data"] = data

    def crash_mid_wait():
        # Past the RETRIEVE air time (~0.2 ms) but well inside the
        # ~50 ms data guard: the down-watcher, not the guard, must end
        # the wait.
        yield env.timeout(0.02)
        replier.crash()

    env.process(retrieve())
    env.process(crash_mid_wait())
    env.run(until=30.0)
    assert outcome["data"] is None  # no other replier: falls back to MSS
    assert requester.health.counts["fast_failovers"] == 1
    # The watcher was withdrawn: no stale event fires on reconnection.
    assert not simulation.network._down_watchers


def test_deadline_budget_stops_retry_chains():
    """With an expired budget the failover loop stops instead of walking
    every remaining replier."""
    config = SimulationConfig(
        **_BASE,
        seed=6,
        peer_policy="arrival",
        retrieve_deadline=0.25,
        retrieve_retry_limit=3,
        think_time_mean=1e9,
    )
    simulation = Simulation(config)
    env = simulation.env
    requester = simulation.clients[0]
    # A search that started well before now: the budget is already blown
    # after the first failed attempt, whatever the guard duration was.
    state = _SearchState(item=0, started=-10.0, reply_event=env.event())
    # Three repliers, none of which will ever serve (no cached item).
    for peer in (1, 2, 3):
        state.replies.append({"peer": peer, "path": [0, peer]})
    outcome = {}

    def retrieve():
        data = yield from requester._retrieve_with_fallback(
            "sid", state, state.replies[0]
        )
        outcome["data"] = data

    env.process(retrieve())
    env.run(until=60.0)
    assert outcome["data"] is None
    assert requester.health.counts["budget_exhausted"] == 1
    # Budget cut the chain after the first replier; 2 and 3 never tried.
    assert set(requester.health._peers) == {1}


def test_all_repliers_circuit_broken_falls_straight_to_mss():
    config = SimulationConfig(
        **_BASE,
        seed=7,
        peer_policy="arrival",
        breaker_threshold=1,
        think_time_mean=1e9,
    )
    simulation = Simulation(config)
    env = simulation.env
    requester = simulation.clients[0]
    # Trip the only replier's breaker.
    requester.health.begin_attempt(1, env.now)
    requester.health.record_failure(1, env.now)
    state = _SearchState(item=0, started=0.0, reply_event=env.event())
    state.replies.append({"peer": 1, "path": [0, 1]})
    outcome = {}

    def retrieve():
        data = yield from requester._retrieve_with_fallback(
            "sid", state, state.replies[0]
        )
        outcome["data"] = data

    env.process(retrieve())
    env.run(until=1.0)
    # Immediate None — no retrieve was ever sent at the broken peer.
    assert outcome["data"] is None
    assert requester.health.peer(1).pending == 0
