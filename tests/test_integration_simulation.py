"""End-to-end integration tests over the full simulation.

Small populations and short windows keep these fast (~seconds each) while
still exercising every protocol path: COCA searches, GroCoCa signatures,
TCG discovery, admission/replacement, consistency and disconnection.
"""


import pytest

from repro import CachingScheme, SimulationConfig, run_simulation
from repro.core.simulation import Simulation, compare_schemes


def small_config(**overrides):
    base = dict(
        scheme=CachingScheme.GC,
        n_clients=12,
        n_data=400,
        access_range=80,
        cache_size=20,
        group_size=4,
        measure_requests=40,
        warmup_min_time=120.0,
        warmup_max_time=150.0,
        ndp_enabled=False,
        seed=7,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def outcome_sum_is_total(results):
    return (
        results.local_hits
        + results.global_hits
        + results.server_requests
        + results.failures
        == results.requests
    )


def test_lc_runs_and_never_uses_peers():
    results = run_simulation(small_config(scheme=CachingScheme.LC))
    assert results.requests >= 12 * 40
    assert results.global_hits == 0
    assert results.peer_searches == 0
    assert results.power_data == 0.0  # no P2P traffic at all
    assert results.power_signature == 0.0
    assert outcome_sum_is_total(results)


def test_cc_runs_and_gets_global_hits():
    results = run_simulation(small_config(scheme=CachingScheme.CC))
    assert results.global_hits > 0
    assert results.peer_searches > 0
    assert results.bypassed_searches == 0  # no signature filter in COCA
    assert results.power_data > 0
    assert results.power_signature == 0.0
    assert outcome_sum_is_total(results)


def test_gc_runs_with_tcg_hits_and_signature_power():
    results = run_simulation(small_config())
    assert results.global_hits > 0
    assert results.global_hits_tcg > 0
    assert results.power_signature > 0
    assert results.bypassed_searches > 0  # the filter does bypass something
    assert outcome_sum_is_total(results)


def test_scheme_ordering_on_server_requests():
    """The paper's headline: cooperation cuts server requests (GC <= CC < LC)."""
    outcomes = compare_schemes(small_config(measure_requests=60))
    assert outcomes["CC"].server_request_ratio < outcomes["LC"].server_request_ratio
    assert (
        outcomes["GC"].server_request_ratio
        < outcomes["LC"].server_request_ratio
    )


def test_same_seed_reproducible():
    a = run_simulation(small_config())
    b = run_simulation(small_config())
    assert a.requests == b.requests
    assert a.global_hits == b.global_hits
    assert a.access_latency == pytest.approx(b.access_latency)
    assert a.power_data == pytest.approx(b.power_data)


def test_different_seed_differs():
    a = run_simulation(small_config())
    b = run_simulation(small_config(seed=8))
    assert (a.global_hits, a.server_requests) != (b.global_hits, b.server_requests)


def test_caches_never_exceed_capacity():
    sim = Simulation(small_config())
    sim.run()
    for client in sim.clients:
        assert len(client.cache) <= sim.config.cache_size


def test_gc_own_signature_consistent_with_cache():
    """Every cached item must be present in the client's own signature."""
    sim = Simulation(small_config())
    sim.run()
    for client in sim.clients:
        for item in client.cache.items():
            assert client.signatures.own.might_contain(item)


def test_data_updates_cause_validations_and_refreshes():
    results = run_simulation(
        small_config(data_update_rate=2.0, measure_requests=60)
    )
    assert results.validations > 0
    assert results.validation_refreshes > 0
    assert outcome_sum_is_total(results)


def test_no_updates_no_validations():
    results = run_simulation(small_config(data_update_rate=0.0))
    assert results.validations == 0


def test_disconnection_cycles_run():
    sim = Simulation(
        small_config(p_disc=0.2, disc_min=2.0, disc_max=5.0, measure_requests=50)
    )
    results = sim.run()
    assert sum(client.disconnections for client in sim.clients) > 0
    assert sim.server.membership_syncs > 0  # reconnection protocol ran
    assert outcome_sum_is_total(results)


def test_ndp_enabled_run_charges_beacon_power():
    results = run_simulation(
        small_config(ndp_enabled=True, measure_requests=20, warmup_min_time=60.0)
    )
    assert results.power_beacon > 0


def test_group_size_one_still_runs():
    results = run_simulation(small_config(group_size=1, measure_requests=30))
    assert results.requests >= 12 * 30
    assert outcome_sum_is_total(results)


def test_hop_dist_one_limits_search_depth():
    results = run_simulation(
        small_config(scheme=CachingScheme.CC, hop_dist=1, measure_requests=30)
    )
    assert results.requests > 0
    assert outcome_sum_is_total(results)


def test_latencies_positive_and_finite():
    results = run_simulation(small_config())
    assert 0.0 <= results.access_latency < 10.0
    assert results.measured_time > 0


def test_explicit_updates_reach_server():
    sim = Simulation(small_config(explicit_update_period=10.0))
    sim.run()
    assert sim.server.explicit_updates > 0


def test_ablation_flags_disable_machinery():
    config = small_config(
        admission_policy="always",
        replacement_policy="lru",
        signature_filtering=False,
    )
    sim = Simulation(config)
    results = sim.run()
    assert results.bypassed_searches == 0  # filter off -> nothing bypassed
    for client in sim.clients:
        assert not client.admission.enabled
        assert not client.replacement.enabled
    assert outcome_sum_is_total(results)
