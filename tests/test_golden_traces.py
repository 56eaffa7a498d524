"""Golden-trace fixtures: committed replays, round-trips, drift detection."""

import json
from pathlib import Path

import pytest

from repro.check import golden
from repro.core.config import SimulationConfig

FIXTURES = Path(__file__).parent / "golden"


def test_committed_fixtures_exist_for_every_case():
    for name in golden.GOLDEN_CASES:
        assert (FIXTURES / f"{name}.json").is_file(), f"missing fixture {name}"


def test_committed_fixtures_replay_without_drift():
    """The heart of the harness: today's code reproduces the committed runs."""
    diffs = golden.verify(FIXTURES)
    assert set(diffs) == set(golden.GOLDEN_CASES)
    drifted = {name: lines for name, lines in diffs.items() if lines}
    assert drifted == {}


def test_fixture_configs_round_trip_to_the_canonical_cases():
    for name, config in golden.GOLDEN_CASES.items():
        with (FIXTURES / f"{name}.json").open() as handle:
            fixture = json.load(handle)
        assert fixture["format"] == golden.FIXTURE_FORMAT
        assert fixture["name"] == name
        assert SimulationConfig.from_dict(fixture["config"]) == config
        assert SimulationConfig.from_dict(config.as_dict()) == config


def test_record_then_verify_round_trip(tmp_path):
    case = {"lc-small": golden.GOLDEN_CASES["lc-small"]}
    paths = golden.record(tmp_path, cases=case)
    assert [p.name for p in paths] == ["lc-small.json"]
    assert golden.verify(tmp_path) == {"lc-small": []}


def test_verify_detects_a_mutated_counter(tmp_path):
    golden.record(tmp_path, cases={"lc-small": golden.GOLDEN_CASES["lc-small"]})
    path = tmp_path / "lc-small.json"
    fixture = json.loads(path.read_text())
    fixture["results"]["requests"] += 1
    path.write_text(json.dumps(fixture))
    diffs = golden.verify(tmp_path)["lc-small"]
    assert len(diffs) == 1
    assert diffs[0].startswith("results.requests: expected")


def test_verify_raises_on_missing_fixtures(tmp_path):
    with pytest.raises(FileNotFoundError):
        golden.verify(tmp_path / "nowhere")


def test_diff_fixture_reports_nested_new_and_missing_fields():
    expected = {"a": 1, "nested": {"x": 1.5, "y": 2}, "gone": 3}
    actual = {"a": 2, "nested": {"x": 1.5, "y": 7, "z": 0}}
    diffs = golden.diff_fixture(expected, actual)
    assert sorted(diffs) == [
        "results.a: expected 1, got 2",
        "results.gone: missing (expected 3)",
        "results.nested.y: expected 2, got 7",
        "results.nested.z: unexpected new field 0",
    ]


def test_golden_mismatch_message_lists_every_drifted_field():
    error = golden.GoldenMismatch("cc-small", ["results.a: expected 1, got 2"])
    assert "cc-small" in str(error)
    assert "1 field(s)" in str(error)
    assert error.diffs == ["results.a: expected 1, got 2"]
