"""Metamorphic and differential properties of the simulation entry points.

Three relations that must hold for *every* configuration:

* serialisation is lossless — a config survives ``as_dict`` -> JSON ->
  ``from_dict`` with its identity, cache key and simulated results intact;
* an all-zero fault plan is indistinguishable from no fault plan;
* re-running the same config (serially or through the result cache)
  reproduces the results bit for bit.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachingScheme, SimulationConfig, canonical_config
from repro.core.metrics import results_to_dict
from repro.core.simulation import run_simulation
from repro.experiments.cache import ResultCache, config_key
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults

# -- strategies ---------------------------------------------------------------

link_faults = st.builds(
    LinkFaults,
    loss=st.floats(min_value=0.0, max_value=0.5),
    burst_loss=st.floats(min_value=0.0, max_value=0.5),
    burst_on=st.floats(min_value=0.0, max_value=1.0),
    burst_off=st.floats(min_value=0.0, max_value=1.0),
)

fault_plans = st.builds(
    FaultPlan,
    p2p=link_faults,
    uplink=link_faults,
    downlink=link_faults,
    crash=st.builds(
        CrashFaults,
        rate=st.floats(min_value=0.0, max_value=0.01),
        down_min=st.just(1.0),
        down_max=st.floats(min_value=1.0, max_value=10.0),
    ),
)

configs = st.builds(
    SimulationConfig,
    scheme=st.sampled_from(list(CachingScheme)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_clients=st.integers(min_value=2, max_value=30),
    n_data=st.integers(min_value=100, max_value=2000),
    cache_size=st.integers(min_value=1, max_value=60),
    access_range=st.integers(min_value=10, max_value=100),
    theta=st.floats(min_value=0.0, max_value=1.0),
    group_size=st.integers(min_value=1, max_value=8),
    p_disc=st.floats(min_value=0.0, max_value=0.5),
    hop_dist=st.integers(min_value=1, max_value=4),
    ndp_enabled=st.booleans(),
    faults=fault_plans,
    search_retry_limit=st.integers(min_value=0, max_value=2),
)


# -- pure (cheap) properties --------------------------------------------------


@given(configs)
def test_config_survives_dict_and_json_round_trip(config):
    payload = json.loads(json.dumps(config.as_dict()))
    rebuilt = SimulationConfig.from_dict(payload)
    assert rebuilt == config
    assert canonical_config(rebuilt) == canonical_config(config)
    assert config_key(rebuilt) == config_key(config)


@given(configs, st.integers(min_value=0, max_value=2**31 - 1))
def test_cache_key_separates_seeds_and_tracks_identity(config, other_seed):
    same = SimulationConfig.from_dict(config.as_dict())
    assert config_key(same) == config_key(config)
    reseeded = config.replace(seed=other_seed)
    if other_seed != config.seed:
        assert config_key(reseeded) != config_key(config)
    else:
        assert config_key(reseeded) == config_key(config)


@given(st.sampled_from(list(CachingScheme)))
def test_explicit_zero_fault_plan_is_the_default_plan(scheme):
    implicit = SimulationConfig(scheme=scheme)
    explicit = SimulationConfig(
        scheme=scheme,
        faults=FaultPlan(
            p2p=LinkFaults(),
            uplink=LinkFaults(),
            downlink=LinkFaults(),
            crash=CrashFaults(),
        ),
    )
    assert explicit == implicit
    assert not explicit.faults.enabled
    assert config_key(explicit) == config_key(implicit)


# -- simulating (expensive) properties: few, tiny, deadline-free --------------

_TINY = dict(
    n_clients=6,
    n_data=150,
    access_range=30,
    cache_size=6,
    group_size=3,
    measure_requests=5,
    warmup_min_time=20.0,
    warmup_max_time=40.0,
    ndp_enabled=False,
)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scheme=st.sampled_from(list(CachingScheme)),
)
@settings(max_examples=4, deadline=None)
def test_seed_stability_across_config_round_trips(seed, scheme):
    config = SimulationConfig(scheme=scheme, seed=seed, **_TINY)
    rebuilt = SimulationConfig.from_dict(json.loads(json.dumps(config.as_dict())))
    first = results_to_dict(run_simulation(config))
    second = results_to_dict(run_simulation(rebuilt))
    first.pop("profile")
    second.pop("profile")
    assert second == first


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=3, deadline=None)
def test_zero_fault_plan_runs_bit_identical_to_no_plan(seed):
    base = SimulationConfig(scheme=CachingScheme.CC, seed=seed, **_TINY)
    zeroed = base.replace(
        faults=FaultPlan(
            p2p=LinkFaults(loss=0.0),
            uplink=LinkFaults(loss=0.0),
            downlink=LinkFaults(loss=0.0),
            crash=CrashFaults(rate=0.0),
        )
    )
    first = results_to_dict(run_simulation(base))
    second = results_to_dict(run_simulation(zeroed))
    assert second == first


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=3, deadline=None)
def test_cached_rerun_returns_identical_results(tmp_path_factory, seed):
    config = SimulationConfig(scheme=CachingScheme.LC, seed=seed, **_TINY)
    cache = ResultCache(tmp_path_factory.mktemp("cache"))
    fresh = run_simulation(config)
    cache.put(config, fresh)
    cached = cache.get(config)
    assert cached is not None
    assert results_to_dict(cached) == results_to_dict(fresh)
    assert cache.hits == 1 and cache.stores == 1
