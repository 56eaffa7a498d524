"""Auto-parametrised conformance battery over every registered policy.

``conformance_keys()`` enumerates the policy tables, so a policy added
as one table row is covered here with no test edits.  Each key's
battery run is memoised at module scope: the four check assertions below
share one report instead of re-running three simulations per check.

The negative tests prove the battery has teeth — a deliberately
stateful policy (class-level counter leaking across runs) must fail the
seed-stability check and turn ``tools/conformance_matrix.py`` red.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.policies import registry
from repro.policies.registry import PolicyInfo
from repro.policies.replacement import ReplacementPolicy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import conformance_matrix  # noqa: E402
from conformance_matrix import (  # noqa: E402
    conformance_config,
    conformance_keys,
    run_conformance,
)

KEYS = conformance_keys()
IDS = [f"{namespace}:{key}" for namespace, key in KEYS]


@functools.lru_cache(maxsize=None)
def report_for(namespace, key):
    return run_conformance(namespace, key)


def test_battery_covers_every_registered_policy():
    expected = {
        (namespace, key)
        for namespace in registry.NAMESPACES
        for key in registry.available(namespace)
    }
    assert set(KEYS) == expected
    assert len(KEYS) == len(set(KEYS))


@pytest.mark.parametrize("namespace,key", KEYS, ids=IDS)
def test_registered_policy_passes_battery(namespace, key):
    report = report_for(namespace, key)
    assert report.passed, f"{namespace}:{key} failed: {report.failures}"
    assert set(report.checks) == {
        "invariants",
        "smoke",
        "seed_stable",
        "round_trip",
    }
    assert all(report.checks.values()), report.checks


@pytest.mark.parametrize("namespace,key", KEYS, ids=IDS)
def test_conformance_config_resolves_the_requested_policy(namespace, key):
    from repro.policies.factory import resolved_policy_keys

    config = conformance_config(namespace, key)
    assert resolved_policy_keys(config)[namespace] == key


def test_report_as_dict_is_json_shaped():
    namespace, key = KEYS[0]
    payload = report_for(namespace, key).as_dict()
    assert payload["namespace"] == namespace
    assert payload["key"] == key
    assert isinstance(payload["checks"], dict)
    assert isinstance(payload["failures"], list)
    assert isinstance(payload["hit_ratio"], float)


class _LeakyReplacement(ReplacementPolicy):
    """Victim choice depends on a class-level counter: run-to-run state."""

    calls = 0  # deliberately class-level — leaks across simulation runs

    def select_victim(self, now):
        if not len(self.cache):
            return None
        type(self).calls += 1
        window = self.cache.lru_entries(2)
        self.evictions += 1
        return window[type(self).calls % len(window)]


def _build_leaky(config, cache, signature_scheme, peer_signature):
    return _LeakyReplacement(cache)


def _plant_leaky(monkeypatch):
    """Add the leaky policy to the replacement table for one test."""
    _LeakyReplacement.calls = 0
    monkeypatch.setitem(
        registry.POLICIES["replacement"],
        "tmp-leaky",
        PolicyInfo(_build_leaky, "negative-test plant", "none"),
    )


def test_battery_rejects_a_run_to_run_stateful_policy(monkeypatch):
    _plant_leaky(monkeypatch)
    report = run_conformance("replacement", "tmp-leaky")
    assert not report.passed
    assert not report.checks["seed_stable"]
    assert any("seed_stable" in failure for failure in report.failures)


def test_matrix_tool_exit_code_follows_the_battery(tmp_path, capsys, monkeypatch):
    _plant_leaky(monkeypatch)
    out = tmp_path / "matrix.json"
    argv = ["--namespace", "replacement", "--key", "tmp-leaky", "--report", str(out)]
    assert conformance_matrix.main(argv) == 1
    payload = json.loads(out.read_text())
    assert (payload["total"], payload["failed"]) == (1, 1)
    entry = payload["entries"][0]
    assert (entry["namespace"], entry["key"], entry["passed"]) == (
        "replacement",
        "tmp-leaky",
        False,
    )
    assert "FAIL replacement:tmp-leaky" in capsys.readouterr().out
    assert conformance_matrix.main(["--namespace", "replacement", "--key", "lru"]) == 0


def test_matrix_tool_covers_every_policy(monkeypatch):
    seen = []

    def fake_run(namespace, key):
        seen.append((namespace, key))
        return report_for(*KEYS[0])

    monkeypatch.setattr(conformance_matrix, "run_conformance", fake_run)
    assert len(conformance_matrix.run_matrix()) == len(KEYS)
    assert seen == KEYS


def test_matrix_tool_rejects_a_filter_matching_nothing(capsys):
    with pytest.raises(SystemExit) as exit_info:
        conformance_matrix.main(["--namespace", "admission", "--key", "lru-minn"])
    assert exit_info.value.code == 2
    assert (
        "no policy matches namespace='admission' key='lru-minn'"
        in capsys.readouterr().err
    )
