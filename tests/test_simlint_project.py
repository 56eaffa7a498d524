"""Whole-program (``--project``) simlint: rules, fixtures, report, CLI."""

import io
import json
from pathlib import Path

import pytest

from repro.analysis.runner import run_lint
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures" / "project"


def lint_fixture(case: str):
    """(exit code, output text) of a project lint over one fixture dir."""
    root = FIXTURES / case
    stream = io.StringIO()
    code = run_lint([root], stream=stream, project=True, project_root=root)
    return code, stream.getvalue()


# -- one triad per rule family -------------------------------------------------


@pytest.mark.parametrize(
    "case, rule",
    [
        ("kernel_violating", "kernel-transitive-hazard"),
        ("config_violating", "config-field-flow"),
    ],
)
def test_violating_fixture_fails_with_rule_id(case, rule):
    code, output = lint_fixture(case)
    assert code == 1
    assert rule in output


@pytest.mark.parametrize(
    "case",
    ["kernel_clean", "config_clean"],
)
def test_clean_fixture_passes(case):
    code, output = lint_fixture(case)
    assert code == 0, output


@pytest.mark.parametrize(
    "case",
    ["kernel_pragma", "config_pragma"],
)
def test_pragma_fixture_suppresses_and_counts_as_used(case):
    code, output = lint_fixture(case)
    # Exit 0 twice over: the finding is suppressed AND the pragma is not
    # flagged pragma-unused (project findings were part of the run).
    assert code == 0, output
    assert "pragma-unused" not in output


# -- finding specifics --------------------------------------------------------


def test_kernel_fixture_catches_blocking_and_set_flow():
    _code, output = lint_fixture("kernel_violating")
    assert "blocking call to time.sleep()" in output
    assert "call to a .sleep() method in power_down()" in output
    assert "hash order reaches the kernel" in output


def test_config_fixture_reports_dead_and_undocumented():
    _code, output = lint_fixture("config_violating")
    assert "never read outside" in output
    assert "absent from DESIGN.md and EXPERIMENTS.md" in output
    assert "used_metric" not in output


# -- project pragmas in file-only runs ----------------------------------------


def test_project_pragma_not_unused_in_file_only_run():
    # Without --project the kernel_pragma pragmas excuse findings that
    # were never computed; the unused audit must not fire for them.
    root = FIXTURES / "kernel_pragma"
    stream = io.StringIO()
    code = run_lint([root], stream=stream)
    assert code == 0, stream.getvalue()


# -- the shipped tree ---------------------------------------------------------


def test_shipped_tree_is_project_clean():
    stream = io.StringIO()
    code = run_lint([SRC], stream=stream, project=True, project_root=REPO_ROOT)
    assert code == 0, f"project lint found violations:\n{stream.getvalue()}"


# -- the JSON report ----------------------------------------------------------


def test_json_report_has_stable_shape(tmp_path):
    root = FIXTURES / "config_violating"
    report_path = tmp_path / "shape.json"
    run_lint(
        [root],
        json_report=report_path,
        stream=io.StringIO(),
        project=True,
        project_root=root,
    )
    report = json.loads(report_path.read_text())
    assert sorted(report) == [
        "counts_by_rule",
        "files_checked",
        "violation_count",
        "violations",
    ]
    assert report["violation_count"] == report["counts_by_rule"]["config-field-flow"]
    assert all(v["scope"] == "project" for v in report["violations"])


# -- CLI ----------------------------------------------------------------------


def test_cli_project_flag(tmp_path, capsys, monkeypatch):
    # The fixture's hazards sit in helpers: only the whole-program pass
    # sees them.
    monkeypatch.chdir(FIXTURES / "kernel_violating")
    assert main(["lint", "."]) == 0
    assert "kernel-transitive-hazard" not in capsys.readouterr().out
    assert main(["lint", ".", "--project"]) == 1
    assert "kernel-transitive-hazard" in capsys.readouterr().out


def test_cli_rules_catalogue_lists_project_rules(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    # One "  <id> [severity]" or "  <id>: ..." header line per rule, in
    # catalogue order: per-file, whole-program, meta.
    ids = [
        line.split()[0].rstrip(":")
        for line in out.splitlines()
        if line.startswith("  ") and line[2] != " "
    ]
    assert ids == [
        "config-field-unvalidated",
        "kernel-blocking-call",
        "kernel-hot-alloc",
        "kernel-stale-now",
        "no-direct-rng",
        "no-wall-clock",
        "set-iteration-order",
        "config-field-flow",
        "kernel-transitive-hazard",
        "parse-error",
        "pragma-missing-reason",
        "pragma-unknown-rule",
        "pragma-unused",
    ]
