"""Tests for the parallel execution layer, result cache and profiling.

The headline guarantees under test:

* ``jobs > 1`` produces results **identical field-by-field** to the serial
  runner (every run is hermetic via ``RandomStreams(config.seed)``);
* a repeated sweep against the same cache executes **zero simulations**
  (counted by the runner the sweep is handed, not by the cache) and
  returns the same table;
* every run carries a :class:`~repro.sim.profile.RunProfile` with
  wall-clock, events processed and per-subsystem counters.
"""

import dataclasses

import pytest

from repro.core.config import CachingScheme, SimulationConfig, canonical_config
from repro.core.metrics import Results
from repro.core.simulation import run_simulation
from repro.experiments import (
    Figure,
    ResultCache,
    RunSpec,
    SweepTable,
    execute_runs,
    jobs_from_env,
    resolve_jobs,
    run_sweep,
)
import repro.experiments.cache as cache_module
from repro.experiments.cache import config_key

SCHEMES = [CachingScheme.LC, CachingScheme.GC]

TINY = dict(
    n_clients=4,
    n_data=100,
    access_range=10,
    cache_size=5,
    measure_requests=3,
    warmup_min_time=0.0,
    warmup_max_time=30.0,
    ndp_enabled=False,
    seed=11,
)


def tiny_config(**overrides) -> SimulationConfig:
    return SimulationConfig(**{**TINY, **overrides})


FIG_P = Figure(
    key="fig-p",
    label="FigP",
    parameter="cache_size",
    title="",
    stem="fig_p",
    axis={"bench": (4, 6)},
    point=lambda v: dict(TINY, cache_size=v),
)


def tiny_sweep(jobs=1, cache=None, progress=None, values=None, **kwargs) -> SweepTable:
    return run_sweep(
        FIG_P,
        values=values,
        rows=[scheme.value for scheme in SCHEMES],
        jobs=jobs,
        cache=cache,
        progress=progress,
        **kwargs,
    )


class CountingRunner:
    """A serial ``runner=`` that counts the simulations it executes."""

    def __init__(self):
        self.calls = 0

    def __call__(self, config):
        self.calls += 1
        return run_simulation(config)


def assert_results_identical(a: Results, b: Results) -> None:
    """Field-by-field equality, excluding the timing-only profile."""
    for field in dataclasses.fields(Results):
        if field.name == "profile":
            continue
        assert getattr(a, field.name) == getattr(b, field.name), field.name


# -- parallel == serial -------------------------------------------------------


def test_parallel_sweep_identical_to_serial():
    serial = tiny_sweep(jobs=1)
    parallel = tiny_sweep(jobs=4)
    assert serial.values == parallel.values
    assert set(serial.rows) == set(parallel.rows)
    for scheme in serial.rows:
        for a, b in zip(serial.rows[scheme], parallel.rows[scheme]):
            assert a == b  # dataclass equality (profile excluded)
            assert_results_identical(a, b)


def test_parallel_replications_identical_to_serial():
    """Replications are seeds swept as figure rows, one run loop for all."""
    unseeded = {key: value for key, value in TINY.items() if key != "seed"}
    replicas = dataclasses.replace(
        FIG_P,
        point=lambda v: dict(unseeded, cache_size=v),
        rows={
            f"{scheme.value}/{seed}": {"scheme": scheme, "seed": seed}
            for scheme in SCHEMES
            for seed in (11, 12)
        },
    )
    serial = run_sweep(replicas, values=[4], jobs=1)
    parallel = run_sweep(replicas, values=[4], jobs=2)
    assert list(serial.rows) == list(replicas.rows)
    for row in replicas.rows:
        (a,), (b,) = serial.rows[row], parallel.rows[row]
        assert_results_identical(a, b)
    assert serial.result("GC/11", 4) != serial.result("GC/12", 4)


def test_execute_runs_preserves_spec_order():
    specs = [
        RunSpec(config=tiny_config(seed=seed), label=f"seed={seed}")
        for seed in (3, 1, 2)
    ]
    results = execute_runs(specs, jobs=2)
    reference = [run_simulation(spec.config) for spec in specs]
    for got, expected in zip(results, reference):
        assert_results_identical(got, expected)


def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(7) == 7
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) == resolve_jobs(None)
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def test_jobs_from_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert jobs_from_env() == 1
    # Unlike ``--jobs 0``, an empty or zero variable means serial.
    for raw, expected in (("", 1), ("  ", 1), ("0", 1), ("3", 3)):
        monkeypatch.setenv("REPRO_JOBS", raw)
        assert jobs_from_env() == expected
    for raw in ("-2", "two"):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(
            ValueError, match=f"REPRO_JOBS must be an integer >= 0, got '{raw}'"
        ):
            jobs_from_env()


# -- result cache -------------------------------------------------------------


def test_cached_sweep_executes_zero_simulations(tmp_path):
    cache = ResultCache(tmp_path)
    runner = CountingRunner()
    first = tiny_sweep(jobs=1, cache=cache, runner=runner)
    assert runner.calls == 4  # 2 values x 2 schemes
    assert cache.misses == 4 and cache.stores == 4 and cache.hits == 0
    assert len(cache) == 4

    rerun_cache = ResultCache(tmp_path)  # fresh instance, same directory
    rerunner = CountingRunner()
    labels = []
    second = tiny_sweep(
        jobs=1, cache=rerun_cache, progress=labels.append, runner=rerunner
    )
    assert rerunner.calls == 0  # zero simulations executed
    assert rerun_cache.hits == 4 and rerun_cache.misses == 0
    assert all(label.endswith("[cached]") for label in labels)
    for scheme in first.rows:
        for a, b in zip(first.rows[scheme], second.rows[scheme]):
            assert_results_identical(a, b)
            assert b.profile is not None  # original run's profile rides along


def test_cache_only_simulates_changed_points(tmp_path):
    cache = ResultCache(tmp_path)
    tiny_sweep(jobs=1, cache=cache)
    runner = CountingRunner()
    widened = tiny_sweep(cache=cache, values=[4, 6, 8], runner=runner)
    assert runner.calls == 2  # only cache_size=8, both schemes
    assert len(widened.rows["GC"]) == 3


def test_cache_key_is_stable_and_sensitive(monkeypatch):
    config = tiny_config()
    assert config_key(config) == config_key(tiny_config())
    assert config_key(config) != config_key(tiny_config(seed=12))
    assert config_key(config) != config_key(
        tiny_config(scheme=CachingScheme.CC)
    )
    current = config_key(config)
    monkeypatch.setattr(cache_module, "default_code_version", lambda: "v2")
    assert config_key(config) != current
    # The canonical form is plain JSON with the enum flattened to its value.
    assert '"scheme": "GC"' in canonical_config(config)


def test_cache_version_mismatch_is_a_miss(tmp_path, monkeypatch):
    config = tiny_config()
    monkeypatch.setattr(cache_module, "default_code_version", lambda: "old-code")
    ResultCache(tmp_path).put(config, run_simulation(config))
    monkeypatch.setattr(cache_module, "default_code_version", lambda: "new-code")
    new = ResultCache(tmp_path)
    assert new.get(config) is None
    assert new.misses == 1


@pytest.mark.parametrize("garbage", [b"not a pickle", b"garbage\n", b""])
def test_cache_corrupt_entry_is_a_miss(tmp_path, garbage):
    config = tiny_config()
    cache = ResultCache(tmp_path)
    cache.path_for(config).write_bytes(garbage)
    assert cache.get(config) is None
    assert cache.misses == 1
    # A clean store repairs the entry.
    cache.put(config, run_simulation(config))
    assert cache.get(config) is not None


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(tiny_config(), run_simulation(tiny_config()))
    assert len(cache) == 1
    assert cache.clear() == 1
    assert len(cache) == 0


# -- profiling ----------------------------------------------------------------


def test_run_profile_attached_and_excluded_from_equality():
    first = run_simulation(tiny_config())
    second = run_simulation(tiny_config())
    assert first == second  # timing differs, outcome identical
    profile = first.profile
    assert profile is not None
    assert profile.wall_time > 0
    assert profile.events > 0
    assert profile.counters["snapshot_refreshes"] > 0
    assert profile.counters["snapshot_rebuilds"] == 0  # incremental fast path
    assert profile.counters["ndp_rounds"] == 0  # ndp disabled in tiny_config


def test_run_profile_counts_network_traffic():
    result = run_simulation(tiny_config())
    counters = result.profile.counters
    # P2P traffic totals from the cooperative (GC) scheme ...
    assert counters["p2p_broadcasts"] > 0
    assert counters["p2p_unicasts"] >= 0
    assert counters["p2p_failed_unicasts"] >= 0
    # ... and the MSS channel's request counts and FCFS queue-wait totals.
    assert counters["server_uplink_requests"] > 0
    assert counters["server_downlink_requests"] > 0
    assert counters["server_uplink_wait"] >= 0.0
    assert counters["server_downlink_wait"] >= 0.0
    # Fault counters only exist when an injector was built.
    assert "fault_p2p_drops" not in counters


def test_run_profile_counts_ndp_rounds():
    result = run_simulation(tiny_config(ndp_enabled=True, warmup_max_time=10.0))
    assert result.profile.counters["ndp_rounds"] > 0
    assert result.profile.counters["beacons_sent"] > 0


# -- SweepTable guards --------------------------------------------------------


def test_sweep_table_unknown_scheme_message():
    table = tiny_sweep(jobs=1)
    with pytest.raises(KeyError, match="scheme 'CC' was not swept in FigP"):
        table.result("CC", 4)
    with pytest.raises(KeyError, match="available schemes"):
        table.series("CC", "gch_ratio")


def test_sweep_table_unknown_value_message():
    table = tiny_sweep(jobs=1)
    with pytest.raises(ValueError, match="cache_size=99 was not swept in FigP"):
        table.result("GC", 99)
