"""The workload registry: keys, config flow, sweep and CLI surface."""

import pytest

from repro.cli import main
from repro.core.config import SimulationConfig
from repro.core.simulation import run_simulation
from repro.experiments import FIGURES, runner, sweeps
from repro.obs import SAMPLE_COLUMNS, Observer
from repro.workloads import (
    DEFAULT_WORKLOAD,
    WorkloadEngine,
    available,
    describe,
    registry,
    resolve,
    resolved_workload_key,
    temporary_workload,
)

BUILTINS = {
    "diurnal",
    "flash-crowd",
    "popularity-drift",
    "stationary-zipf",
    "ycsb",
}


# -- registry API ----------------------------------------------------------------


def test_builtin_workloads_are_registered():
    assert available() == sorted(BUILTINS)


def test_describe_carries_summary_and_citation():
    info = describe("stationary-zipf")
    assert info.key == "stationary-zipf"
    assert "legacy" in info.summary
    assert "ICDCS" in info.citation


def test_resolve_returns_an_engine_class():
    engine = resolve("stationary-zipf")
    assert issubclass(engine, WorkloadEngine)


def test_unknown_key_lists_every_valid_key():
    with pytest.raises(KeyError) as excinfo:
        describe("nope")
    message = str(excinfo.value)
    assert "unknown workload 'nope'" in message
    for key in BUILTINS:
        assert key in message


def test_duplicate_and_empty_keys_are_rejected():
    with pytest.raises(ValueError, match="duplicate workload 'ycsb'"):
        registry.register_value("ycsb", object())
    with pytest.raises(ValueError, match="non-empty string"):
        registry.register_value("", object())


def test_temporary_workload_is_removed_on_exit():
    marker = object()
    with temporary_workload("tmp-workload", marker):
        assert resolve("tmp-workload") is marker
    assert "tmp-workload" not in available()


# -- config flow -----------------------------------------------------------------


def test_config_default_resolves_to_stationary_zipf():
    config = SimulationConfig()
    assert config.workload == ""
    assert resolved_workload_key(config) == DEFAULT_WORKLOAD == "stationary-zipf"


def test_config_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        SimulationConfig(workload="nope")


def test_config_round_trips_workload_fields():
    config = SimulationConfig(workload="ycsb")
    rebuilt = SimulationConfig.from_dict(config.as_dict())
    assert rebuilt == config
    assert rebuilt.workload == "ycsb"


# -- sweep surface ---------------------------------------------------------------


def test_sweep_workload_covers_every_generative_engine(monkeypatch):
    monkeypatch.setenv("REPRO_PROFILE", "bench")
    captured = []

    def fake_execute_runs(specs, **kwargs):
        captured.extend(specs)
        return [None] * len(specs)

    monkeypatch.setattr(runner, "execute_runs", fake_execute_runs)
    table = runner.run_sweep(FIGURES["fig-workload"])
    assert table.figure == "FigWorkload"
    assert table.parameter == "workload"
    assert table.values == list(sweeps.GENERATIVE_WORKLOADS)
    # A registered engine with no FigWorkload column fails here.
    assert set(sweeps.GENERATIVE_WORKLOADS) == set(available())
    assert [s.config.workload for s in captured[::3]] == table.values


def test_sweep_workload_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        runner.run_sweep(FIGURES["fig-workload"], values=["nope"])


# -- CLI surface -----------------------------------------------------------------


def test_cli_workloads_list(capsys):
    assert main(["workloads", "list"]) == 0
    lines = capsys.readouterr().out.split("\n")
    keys = {line.split()[0] for line in lines if line.strip()[:1] not in ("", "[")}
    assert keys == BUILTINS


def test_cli_run_accepts_workload_flags(capsys):
    code = main(
        [
            "run",
            "--clients", "6", "--data", "120", "--access-range", "30",
            "--cache-size", "6", "--group-size", "3", "--requests", "2",
            "--seed", "3", "--no-ndp",
            "--workload", "ycsb",
        ]
    )
    assert code == 0
    assert "scheme" in capsys.readouterr().out


# -- sampler columns -------------------------------------------------------------


def test_sampler_reports_workload_window_columns():
    assert SAMPLE_COLUMNS[-2:] == ("win_request_rate", "win_hot_entropy")
    config = SimulationConfig(
        n_clients=6,
        n_data=120,
        access_range=30,
        cache_size=6,
        group_size=3,
        measure_requests=5,
        warmup_min_time=20.0,
        warmup_max_time=40.0,
        max_sim_time=400.0,
        ndp_enabled=False,
        seed=7,
    )
    observer = Observer(sample_period=10.0)
    run_simulation(config, observer=observer)
    rates = observer.sampler.series("win_request_rate")
    entropies = observer.sampler.series("win_hot_entropy")
    assert len(rates) == len(entropies) > 0
    # ~6 clients at 1 req/s: busy windows sit near 6 req/s and draw a
    # spread of items, so entropy is clearly positive there.
    assert max(rates) > 1.0
    assert max(entropies) > 1.0
    assert all(rate >= 0.0 for rate in rates)
    assert all(entropy >= 0.0 for entropy in entropies)


def test_zipf_host_stream_draws_legacy_pair():
    import numpy as np

    from repro.data.workload import AccessPattern
    from repro.workloads.stationary import ZipfHostStream

    class Engine:
        noted = []

        def note(self, item):
            self.noted.append(item)

    rng_items = np.random.default_rng(1)
    rng_delays = np.random.default_rng(2)
    pattern = AccessPattern(rng_items, 100, 20, 0.8, start=5)
    stream = ZipfHostStream(Engine(), pattern, rng_delays, 2.0)
    delay = stream.next_delay(0.0)
    item = stream.next_item(0.0)
    assert delay > 0.0
    assert pattern.covers(item)
    assert Engine.noted == [item]
