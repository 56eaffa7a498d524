"""Unit tests of the fault-injection layer (repro.net.faults)."""

import math

import numpy as np
import pytest

from repro.net.faults import (
    CrashFaults,
    FaultInjector,
    FaultPlan,
    LinkFaults,
    LinkInjector,
)
from repro.sim.random import RandomStreams


# -- plan validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"loss": -0.1},
        {"loss": 1.5},
        {"burst_loss": 2.0},
        {"burst_on": -1.0},
        {"burst_off": 1.01},
    ],
)
def test_link_faults_validation(overrides):
    with pytest.raises(ValueError):
        LinkFaults(**overrides)


@pytest.mark.parametrize(
    "overrides",
    [
        {"rate": -0.1},
        {"down_min": 0.0},
        {"down_min": 10.0, "down_max": 5.0},
        *(
            {name: value}
            for name in ("rate", "down_min", "down_max")
            for value in (math.nan, math.inf, -math.inf)
        ),
    ],
)
def test_crash_faults_validation(overrides):
    with pytest.raises(ValueError):
        CrashFaults(**overrides)


def test_enabled_flags():
    assert not LinkFaults().enabled
    assert LinkFaults(loss=0.1).enabled
    assert LinkFaults(burst_loss=0.5, burst_on=0.1).enabled
    # A bursty component needs both the chain and the extra loss.
    assert not LinkFaults(burst_on=0.1).enabled
    assert not LinkFaults(burst_loss=0.5).enabled
    assert not CrashFaults().enabled
    assert CrashFaults(rate=0.01).enabled
    assert not FaultPlan().enabled
    assert FaultPlan(uplink=LinkFaults(loss=0.2)).enabled
    assert FaultPlan(crash=CrashFaults(rate=0.01)).enabled


# -- link injector ------------------------------------------------------------


def test_disabled_injector_never_draws():
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    injector = LinkInjector(LinkFaults(), rng)
    assert not any(injector.drop() for _ in range(100))
    assert injector.checks == 0 and injector.drops == 0
    assert rng.bit_generator.state == state_before


def test_total_loss_drops_everything():
    injector = LinkInjector(LinkFaults(loss=1.0), np.random.default_rng(0))
    assert all(injector.drop() for _ in range(50))
    assert injector.drops == injector.checks == 50


def test_iid_loss_rate_converges():
    injector = LinkInjector(LinkFaults(loss=0.3), np.random.default_rng(1))
    trials = 20_000
    drops = sum(injector.drop() for _ in range(trials))
    assert drops / trials == pytest.approx(0.3, abs=0.02)


def test_bursty_chain_adds_loss_only_in_bad_state():
    # burst_on=1 forces the chain bad on the first advance; burst_off=0
    # keeps it there; with loss=0 every drop comes from the burst.
    faults = LinkFaults(loss=0.0, burst_loss=1.0, burst_on=1.0, burst_off=0.0)
    injector = LinkInjector(faults, np.random.default_rng(2))
    assert all(injector.drop() for _ in range(20))


def test_bursty_chains_are_per_state():
    faults = LinkFaults(loss=0.0, burst_loss=1.0, burst_on=0.5, burst_off=0.0)
    injector = LinkInjector(faults, np.random.default_rng(3), n_states=64)
    outcomes = {state: injector.drop(state) for state in range(64)}
    # With P(bad)=0.5 per chain, both fates must appear across 64 receivers.
    assert any(outcomes.values()) and not all(outcomes.values())
    # A chain stuck bad (burst_off=0) keeps dropping for its receiver.
    stuck = next(state for state, dropped in outcomes.items() if dropped)
    assert all(injector.drop(stuck) for _ in range(10))


def test_loss_sequence_is_reproducible():
    def sequence():
        injector = LinkInjector(
            LinkFaults(loss=0.2, burst_loss=0.5, burst_on=0.1),
            np.random.default_rng(42),
        )
        return [injector.drop() for _ in range(200)]

    assert sequence() == sequence()


# -- full injector ------------------------------------------------------------


def make_injector(plan, seed=7, n_hosts=8):
    return FaultInjector(plan, RandomStreams(seed), n_hosts)


def test_injector_validates_hosts():
    with pytest.raises(ValueError):
        make_injector(FaultPlan(), n_hosts=0)


def test_injector_counters_keys():
    injector = make_injector(FaultPlan(p2p=LinkFaults(loss=1.0)))
    injector.drop_p2p(0)
    injector.drop_p2p(1)
    injector.drop_uplink()
    counters = injector.counters()
    assert counters == {
        "fault_p2p_drops": 2,
        "fault_uplink_drops": 0,
        "fault_downlink_drops": 0,
        "fault_crashes": 0,
    }


def test_injector_components_use_independent_streams():
    plan = FaultPlan(
        p2p=LinkFaults(loss=0.5),
        uplink=LinkFaults(loss=0.5),
        crash=CrashFaults(rate=0.01),
    )
    # Draining one component must not perturb another: the uplink sequence
    # is the same whether or not p2p/crash draws happen in between.
    lonely = make_injector(plan)
    uplink_alone = [lonely.drop_uplink() for _ in range(100)]
    busy = make_injector(plan)
    uplink_mixed = []
    for _ in range(100):
        busy.drop_p2p(3)
        busy.next_crash_delay()
        uplink_mixed.append(busy.drop_uplink())
    assert uplink_alone == uplink_mixed


def test_crash_process_sampling():
    plan = FaultPlan(crash=CrashFaults(rate=0.02, down_min=4.0, down_max=9.0))
    injector = make_injector(plan, n_hosts=10)
    delays = [injector.next_crash_delay() for _ in range(200)]
    assert all(d > 0 for d in delays)
    # Aggregate rate = 0.02 * 10 hosts -> mean inter-crash time of 5 s.
    assert np.mean(delays) == pytest.approx(5.0, rel=0.25)
    victims = {injector.crash_victim() for _ in range(200)}
    assert victims <= set(range(10)) and len(victims) > 5
    durations = [injector.outage_duration() for _ in range(200)]
    assert all(4.0 <= d <= 9.0 for d in durations)
