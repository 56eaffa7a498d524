"""The workload registry: keys, params, config flow, sweep and CLI surface."""

import pytest

from repro.cli import main
from repro.core.config import SimulationConfig
from repro.core.simulation import run_simulation
from repro.experiments import FIGURES, runner, sweeps
from repro.obs import SAMPLE_COLUMNS, Observer
from repro.workloads import (
    DEFAULT_WORKLOAD,
    REQUIRED,
    WorkloadEngine,
    available,
    describe,
    registry,
    resolve,
    resolve_params,
    resolved_workload_key,
    temporary_workload,
)

BUILTINS = {
    "diurnal",
    "flash-crowd",
    "popularity-drift",
    "stationary-zipf",
    "trace-replay",
    "ycsb",
}


# -- registry API ----------------------------------------------------------------


def test_builtin_workloads_are_registered():
    assert BUILTINS <= set(available())
    assert available() == sorted(available())


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


# -- parameter resolution --------------------------------------------------------


def test_resolve_params_merges_over_defaults():
    params = resolve_params("k", {"a": 2}, {"a": 1, "b": 3})
    assert params == {"a": 2, "b": 3}


def test_resolve_params_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown workload param 'typo' for 'k'"):
        resolve_params("k", {"typo": 1}, {"a": 1})


def test_resolve_params_requires_required_entries():
    with pytest.raises(ValueError, match="workload 'k' requires param 'path'"):
        resolve_params("k", {}, {"path": REQUIRED})


def test_trace_replay_requires_a_path():
    config = SimulationConfig(workload="trace-replay")
    # The engine is built (and fails fast) before any event runs.
    with pytest.raises(ValueError, match="workload 'trace-replay' requires param 'path'"):
        run_simulation(config)


# -- config flow -----------------------------------------------------------------


def test_config_default_resolves_to_stationary_zipf():
    config = SimulationConfig()
    assert config.workload == ""
    assert resolved_workload_key(config) == DEFAULT_WORKLOAD == "stationary-zipf"


def test_config_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        SimulationConfig(workload="nope")


def test_config_rejects_non_dict_workload_params():
    with pytest.raises(ValueError, match="workload_params must be a dict"):
        SimulationConfig(workload_params=[1, 2])
    with pytest.raises(ValueError, match="workload_params must be a dict"):
        SimulationConfig(workload_params={1: "x"})


def test_config_round_trips_workload_fields():
    config = SimulationConfig(
        workload="ycsb", workload_params={"mix": "d", "theta": 0.7}
    )
    rebuilt = SimulationConfig.from_dict(config.as_dict())
    assert rebuilt == config
    assert rebuilt.workload_params == {"mix": "d", "theta": 0.7}


def test_unknown_param_for_engine_is_pinned():
    config = SimulationConfig(
        workload="diurnal",
        workload_params={"amplituude": 0.3},
    )
    with pytest.raises(
        ValueError, match="unknown workload param 'amplituude' for 'diurnal'"
    ):
        run_simulation(config)


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
    assert "trace-replay" not in table.values  # needs an input file
    assert [s.config.workload for s in captured[::3]] == table.values


def test_sweep_workload_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown workload 'nope'"):
        runner.run_sweep(FIGURES["fig-workload"], values=["nope"])


# -- CLI surface -----------------------------------------------------------------


def test_cli_workloads_list(capsys):
    assert main(["workloads", "list"]) == 0
    out = capsys.readouterr().out
    for key in BUILTINS:
        assert key in out


def test_cli_run_accepts_workload_flags(capsys):
    code = main(
        [
            "run",
            "--clients", "6", "--data", "120", "--access-range", "30",
            "--cache-size", "6", "--group-size", "3", "--requests", "2",
            "--seed", "3", "--no-ndp",
            "--workload", "ycsb", "--workload-param", "mix=c",
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
