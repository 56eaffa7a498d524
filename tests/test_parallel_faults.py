"""Crash tolerance of the sweep harness (execute_runs retry/quarantine).

Covers the whole failure matrix: transient exceptions retried to success,
permanent failures quarantined (raising :class:`RunCrashed`, or returning
``None`` holes with ``salvage=True``), a killed worker process rebuilt and
its batch re-dispatched, and hung runs bounded by the per-run timeout.
"""

import pytest

from repro.core.simulation import run_simulation
from repro.experiments.parallel import (
    RunCrashed,
    RunSpec,
    execute_runs,
)
from tests import _crash_helpers
from tests.test_experiments_parallel import assert_results_identical, tiny_config


@pytest.fixture
def flag_file(tmp_path, monkeypatch):
    path = tmp_path / "tripped"
    monkeypatch.setenv("REPRO_TEST_FLAG", str(path))
    return path


def make_specs(n=2):
    return [
        RunSpec(config=tiny_config(seed=20 + i), label=f"s{i}") for i in range(n)
    ]


def test_attempts_must_be_positive():
    with pytest.raises(ValueError):
        execute_runs([], attempts=0)


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"), float("inf")])
def test_timeout_must_be_positive_and_finite(timeout):
    with pytest.raises(ValueError, match="timeout must be positive and finite"):
        execute_runs([], jobs=2, timeout=timeout)


def test_serial_transient_failure_is_retried_to_success(flag_file):
    specs = make_specs(2)
    labels = []
    results = execute_runs(
        specs, jobs=1, runner=_crash_helpers.raise_once_runner,
        progress=labels.append,
    )
    for got, spec in zip(results, specs):
        assert_results_identical(got, run_simulation(spec.config))
    assert any("[retry 2]" in label for label in labels)
    assert not any("[quarantined" in label for label in labels)


def test_serial_permanent_failure_raises_run_crashed():
    specs = make_specs(1)
    with pytest.raises(RunCrashed) as excinfo:
        execute_runs(
            specs, jobs=1, runner=_crash_helpers.always_raise_runner, attempts=2
        )
    (failure,) = excinfo.value.failures
    assert failure.index == 0
    assert failure.label == "s0"
    assert failure.attempts == 2
    assert "permanent failure" in failure.error
    assert "s0" in str(excinfo.value)


def test_salvage_returns_partial_results():
    # Seeds 20 (even, fine) and 21 (odd, cursed).
    specs = make_specs(2)
    failures, labels = [], []
    results = execute_runs(
        specs,
        jobs=1,
        runner=_crash_helpers.fail_odd_seed_runner,
        salvage=True,
        failures_out=failures,
        progress=labels.append,
    )
    assert results[0] is not None and results[1] is None
    assert_results_identical(results[0], run_simulation(specs[0].config))
    (failure,) = failures
    assert failure.index == 1 and failure.attempts == 2
    assert any("[quarantined" in label for label in labels)


def test_pool_survives_a_killed_worker(flag_file):
    # One worker os._exit()s mid-batch; the pool is rebuilt, the innocent
    # future is re-dispatched without being charged an attempt, and the
    # sweep still completes with reference-identical results.
    specs = make_specs(2)
    results = execute_runs(
        specs, jobs=2, runner=_crash_helpers.crash_once_runner, attempts=2
    )
    for got, spec in zip(results, specs):
        assert got is not None
        assert_results_identical(got, run_simulation(spec.config))


def test_pool_timeout_quarantines_hung_runs():
    specs = make_specs(2)
    failures = []
    results = execute_runs(
        specs,
        jobs=2,
        runner=_crash_helpers.slow_runner,
        timeout=1.0,
        attempts=1,
        salvage=True,
        failures_out=failures,
    )
    assert results == [None, None]
    assert len(failures) == 2
    assert all("timed out after 1.0s" in failure.error for failure in failures)
