"""Auto-parametrised conformance battery over every registered workload.

``conformance_keys()`` enumerates the registry, so a workload added with
one ``@register`` line is covered here with no test edits.  Each key's
battery run is memoised at module scope: the check assertions below
share one report instead of re-running the simulations per check.

The negative tests prove the constant-memory check has teeth — a
deliberately hoarding stream (one that materialises every request it
serves) must blow past the bound, fail the shared battery runner on
exactly that check, and turn ``tools/conformance_matrix.py`` red.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.workloads import available, temporary_workload
from repro.workloads.base import WorkloadEngine
from repro.workloads.conformance import (
    CONSTANT_MEMORY_BOUND,
    conformance_config,
    conformance_keys,
    run_conformance,
)
from repro.workloads.factory import resolved_workload_key

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import conformance_matrix  # noqa: E402

KEYS = conformance_keys()


@functools.lru_cache(maxsize=None)
def report_for(key):
    return run_conformance(key)


def test_battery_covers_every_registered_workload():
    assert KEYS == available()
    assert len(KEYS) == len(set(KEYS))


@pytest.mark.parametrize("key", KEYS)
def test_registered_workload_passes_battery(key):
    report = report_for(key)
    assert report.passed, f"{key} failed: {report.failures}"
    assert set(report.checks) == {
        "invariants",
        "smoke",
        "seed_stable",
        "round_trip",
        "constant_memory",
    }
    assert all(report.checks.values()), report.checks


@pytest.mark.parametrize("key", KEYS)
def test_conformance_config_selects_the_requested_workload(key):
    config = conformance_config(key)
    assert resolved_workload_key(config) == key


@pytest.mark.parametrize("key", KEYS)
def test_report_serialises(key):
    payload = report_for(key).as_dict()
    assert payload["key"] == key
    assert payload["passed"] is True
    assert isinstance(payload["memory_delta"], int)


class _HoardingStream:
    """Anti-conformant: keeps every request it ever served."""

    def __init__(self, rng, mean):
        self.rng = rng
        self.mean = mean
        self.hoard = []

    def next_delay(self, now):
        return self.rng.exponential(self.mean)

    def next_item(self, now):
        item = int(self.rng.integers(0, 100))
        self.hoard.append(bytes(256))  # O(requests) state: the violation
        return item


class _HoardingWorkload(WorkloadEngine):
    key = "hoarding"

    def bind(self, index, rng):
        return _HoardingStream(rng, self.config.think_time_mean)


def test_constant_memory_check_has_teeth():
    with temporary_workload("hoarding", _HoardingWorkload):
        report = run_conformance("hoarding")
    assert not report.passed
    assert [name for name, ok in report.checks.items() if not ok] == [
        "constant_memory"
    ]
    assert report.measurements["memory_delta"] >= CONSTANT_MEMORY_BOUND


def test_matrix_tool_exit_code_follows_the_battery(tmp_path, capsys):
    out = tmp_path / "matrix.json"
    argv = ["--namespace", "workload", "--key", "hoarding", "--report", str(out)]
    with temporary_workload("hoarding", _HoardingWorkload):
        assert conformance_matrix.main(argv) == 1
    payload = json.loads(out.read_text())
    assert (payload["total"], payload["failed"]) == (1, 1)
    assert payload["entries"][0]["namespace"] == "workload"
    assert "FAIL workload:hoarding" in capsys.readouterr().out
    assert conformance_matrix.main(["--namespace", "workload", "--key", "ycsb"]) == 0


def test_matrix_tool_covers_both_registries():
    from repro.policies.conformance import conformance_keys as policy_keys

    rows = [(namespace, key) for namespace, key, _ in conformance_matrix.matrix_rows()]
    assert rows == policy_keys() + [("workload", key) for key in KEYS]
