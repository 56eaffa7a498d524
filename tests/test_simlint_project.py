"""Whole-program (``--project``) simlint: rules, fixtures, CLI, baseline v2."""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline, fingerprint
from repro.analysis.engine import LintViolation
from repro.analysis.runner import run_lint
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "simlint-baseline.json"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures" / "project"


def lint_fixture(case: str):
    """(exit code, output text) of a project lint over one fixture dir."""
    root = FIXTURES / case
    stream = io.StringIO()
    code = run_lint(
        [root],
        baseline_path=None,
        stream=stream,
        project=True,
        use_cache=False,
        project_root=root,
    )
    return code, stream.getvalue()


# -- one triad per rule family -------------------------------------------------


@pytest.mark.parametrize(
    "case, rule",
    [
        ("rng_violating", "rng-provenance"),
        ("shared_stream_violating", "rng-shared-stream"),
        ("kernel_violating", "kernel-transitive-hazard"),
        ("config_violating", "config-field-flow"),
        ("registry_violating", "registry-consistency"),
    ],
)
def test_violating_fixture_fails_with_rule_id(case, rule):
    code, output = lint_fixture(case)
    assert code == 1
    assert rule in output


@pytest.mark.parametrize(
    "case",
    ["rng_clean", "kernel_clean", "config_clean", "registry_clean"],
)
def test_clean_fixture_passes(case):
    code, output = lint_fixture(case)
    assert code == 0, output


@pytest.mark.parametrize(
    "case",
    [
        "rng_pragma",
        "shared_stream_pragma",
        "kernel_pragma",
        "config_pragma",
        "registry_pragma",
    ],
)
def test_pragma_fixture_suppresses_and_counts_as_used(case):
    code, output = lint_fixture(case)
    # Exit 0 twice over: the finding is suppressed AND the pragma is not
    # flagged pragma-unused (project findings were part of the run).
    assert code == 0, output
    assert "pragma-unused" not in output


# -- finding specifics --------------------------------------------------------


def test_rng_provenance_names_the_traced_value():
    _code, output = lint_fixture("rng_violating")
    assert "FakeRng instance" in output
    assert "not a RandomStreams stream" in output


def test_shared_stream_reports_every_owner():
    _code, output = lint_fixture("shared_stream_violating")
    assert output.count("'shared-name'") == 2
    assert "layer_a" in output and "layer_b" in output


def test_kernel_fixture_catches_blocking_and_set_flow():
    _code, output = lint_fixture("kernel_violating")
    assert "blocking call to time.sleep()" in output
    assert "hash order reaches the kernel" in output


def test_config_fixture_reports_dead_and_undocumented():
    _code, output = lint_fixture("config_violating")
    assert "never read outside" in output
    assert "absent from DESIGN.md and EXPERIMENTS.md" in output
    assert "used_metric" not in output


def test_registry_fixture_reports_all_three_drifts():
    _code, output = lint_fixture("registry_violating")
    assert "'mystery' is registered but never mentioned" in output
    assert "'ghost' but no register() site" in output
    assert "'orphaned' is registered in orphan" in output
    assert "_load_builtins never" in output


# -- project pragmas in file-only runs ----------------------------------------


def test_project_pragma_not_unused_in_file_only_run():
    # Without --project the kernel_pragma pragmas excuse findings that
    # were never computed; the unused audit must not fire for them.
    root = FIXTURES / "kernel_pragma"
    stream = io.StringIO()
    code = run_lint(
        [root], baseline_path=None, stream=stream, use_cache=False
    )
    assert code == 0, stream.getvalue()


# -- the shipped tree ---------------------------------------------------------


def test_shipped_tree_is_project_clean_modulo_baseline():
    stream = io.StringIO()
    code = run_lint(
        [SRC],
        baseline_path=BASELINE,
        stream=stream,
        project=True,
        use_cache=False,
        project_root=REPO_ROOT,
    )
    assert code == 0, f"project lint found new violations:\n{stream.getvalue()}"


# -- CLI ----------------------------------------------------------------------


def test_cli_project_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(FIXTURES / "rng_violating")
    assert (
        main(["lint", ".", "--no-baseline", "--project", "--no-cache"]) == 1
    )
    assert "rng-provenance" in capsys.readouterr().out


def test_cli_rules_catalogue_lists_project_rules(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "rng-provenance",
        "rng-shared-stream",
        "kernel-transitive-hazard",
        "config-field-flow",
        "registry-consistency",
    ):
        assert rule in out


def test_cli_update_and_prune_are_mutually_exclusive(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    code = main(
        [
            "lint",
            str(clean),
            "--baseline",
            str(tmp_path / "b.json"),
            "--update-baseline",
            "--prune-baseline",
        ]
    )
    assert code == 2


# -- baseline v2 --------------------------------------------------------------


def project_violation(message="m"):
    return LintViolation(
        rule="config-field-flow",
        path="src/x.py",
        line=4,
        column=1,
        message=message,
        scope="project",
    )


def test_project_fingerprint_keys_on_message_not_line():
    a = project_violation("field 'k' is dead")
    b = LintViolation(
        rule="config-field-flow",
        path="src/x.py",
        line=99,
        column=7,
        message="field 'k' is dead",
        scope="project",
    )
    assert fingerprint(a, "anything") == fingerprint(b, "else entirely")
    assert fingerprint(a, "x") != fingerprint(project_violation("other"), "x")


def test_baseline_v1_auto_upgrades_on_load(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "format": 1,
                "entries": [
                    {
                        "fingerprint": "abc",
                        "rule": "r",
                        "path": "p.py",
                        "line": 1,
                        "note": "n",
                    }
                ],
            }
        )
    )
    loaded = Baseline.load(path)
    assert loaded.entries[0]["scope"] == "file"
    loaded.save(path)
    payload = json.loads(path.read_text())
    assert payload["format"] == 2
    assert payload["entries"][0]["scope"] == "file"


def test_baseline_with_the_retired_modules_map_still_loads(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps({"format": 2, "entries": [], "modules": {"p.py": "0f"}})
    )
    Baseline.load(path).save(path)
    assert "modules" not in json.loads(path.read_text())


def test_baseline_save_is_idempotent(tmp_path):
    path = tmp_path / "baseline.json"
    baseline = Baseline.from_violations([(project_violation(), "line")])
    assert baseline.save(path) is True
    before = path.read_bytes()
    assert baseline.save(path) is False
    assert path.read_bytes() == before


def test_baseline_reasons_survive_update(tmp_path):
    violation = project_violation()
    key = fingerprint(violation, "line")
    baseline = Baseline.from_violations(
        [(violation, "line")], reasons={key: "known drift, tracked in #42"}
    )
    assert baseline.entries[0]["reason"] == "known drift, tracked in #42"
    rebuilt = Baseline.from_violations(
        [(violation, "line")], reasons=baseline.reasons()
    )
    assert rebuilt.entries[0]["reason"] == "known drift, tracked in #42"


def test_update_baseline_noop_leaves_file_byte_identical(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT = time.time()\n")
    baseline = tmp_path / "baseline.json"
    run_lint(
        [bad],
        baseline_path=baseline,
        update_baseline=True,
        use_cache=False,
        stream=io.StringIO(),
    )
    before = baseline.read_bytes()
    stream = io.StringIO()
    run_lint(
        [bad],
        baseline_path=baseline,
        update_baseline=True,
        use_cache=False,
        stream=stream,
    )
    assert baseline.read_bytes() == before
    assert "already up to date" in stream.getvalue()


def test_prune_baseline_removes_only_stale_entries(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT = time.time()\nU = time.monotonic()\n")
    baseline = tmp_path / "baseline.json"
    run_lint(
        [bad],
        baseline_path=baseline,
        update_baseline=True,
        use_cache=False,
        stream=io.StringIO(),
    )
    assert len(json.loads(baseline.read_text())["entries"]) == 2
    # Fix one finding; its entry goes stale, the other still fires.
    bad.write_text("import time\nT = time.time()\n")
    stream = io.StringIO()
    code = run_lint(
        [bad],
        baseline_path=baseline,
        prune_baseline=True,
        use_cache=False,
        stream=stream,
    )
    assert code == 0
    output = stream.getvalue()
    assert "pruned" in output
    entries = json.loads(baseline.read_text())["entries"]
    assert len(entries) == 1
    assert "time.time" in str(entries[0]["note"]) or entries[0]["line"] == 2
    # Still-firing entry survived: the tree stays clean modulo baseline.
    assert (
        run_lint(
            [bad], baseline_path=baseline, use_cache=False, stream=io.StringIO()
        )
        == 0
    )


def test_prune_baseline_noop_reports_nothing_stale(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT = time.time()\n")
    baseline = tmp_path / "baseline.json"
    run_lint(
        [bad],
        baseline_path=baseline,
        update_baseline=True,
        use_cache=False,
        stream=io.StringIO(),
    )
    before = baseline.read_bytes()
    stream = io.StringIO()
    run_lint(
        [bad],
        baseline_path=baseline,
        prune_baseline=True,
        use_cache=False,
        stream=stream,
    )
    assert "no stale entries" in stream.getvalue()
    assert baseline.read_bytes() == before
