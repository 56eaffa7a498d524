"""Engine-level simlint behaviour: sources, pragmas, runner."""

import io
import json
from pathlib import Path

from repro.analysis.engine import (
    META_RULES,
    LintViolation,
    ModuleSource,
    all_project_rules,
    all_rules,
    known_rule_ids,
    lint_source,
)
from repro.analysis.runner import run_lint

FIXTURES = Path(__file__).parent / "lint_fixtures"


def lint_fixture(name):
    module = ModuleSource.from_path(FIXTURES / name)
    return lint_source(module, all_rules())


def marker_line(name, marker):
    """1-indexed line of a MARK comment in a fixture file."""
    text = (FIXTURES / name).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        if marker in line:
            return number
    raise AssertionError(f"marker {marker!r} not found in {name}")


def test_registry_covers_all_rule_families():
    # The exact catalogue: adding or deleting a rule is an explicit edit
    # here and in the docs/ANALYSIS.md history table.
    assert [rule.id for rule in all_rules()] == [
        "config-field-unvalidated",
        "kernel-blocking-call",
        "kernel-hot-alloc",
        "kernel-stale-now",
        "no-direct-rng",
        "no-wall-clock",
        "set-iteration-order",
    ]
    assert [rule.id for rule in all_project_rules()] == [
        "config-field-flow",
        "kernel-transitive-hazard",
    ]
    assert sorted(META_RULES) == [
        "parse-error",
        "pragma-missing-reason",
        "pragma-unknown-rule",
        "pragma-unused",
    ]
    assert len(known_rule_ids()) == 13


def test_qualified_name_resolves_import_aliases():
    module = ModuleSource(
        Path("x.py"),
        "import numpy as np\nfrom os import path as osp\nnp.random.default_rng\nosp.join\n",
    )
    tree = module.tree
    rng_expr = tree.body[2].value
    join_expr = tree.body[3].value
    assert module.qualified_name(rng_expr) == "numpy.random.default_rng"
    assert module.qualified_name(join_expr) == "os.path.join"


def test_clean_fixture_has_no_findings():
    assert lint_fixture("clean_module.py") == []


def test_parse_error_is_reported_and_stops_other_rules():
    findings = lint_fixture("broken_syntax.py")
    assert len(findings) == 1
    assert findings[0].rule == "parse-error"


def test_valid_pragma_suppresses_and_is_not_flagged():
    findings = lint_fixture("pragma_cases.py")
    rules = [f.rule for f in findings]
    # The valid suppression leaves no no-wall-clock finding at its line...
    suppressed_line = marker_line("pragma_cases.py", "valid suppression")
    assert not any(
        f.line == suppressed_line and f.rule == "no-wall-clock" for f in findings
    )
    # ...and the three defective pragmas each surface as a meta finding.
    assert rules.count("pragma-missing-reason") == 1
    assert rules.count("pragma-unknown-rule") == 1
    assert rules.count("pragma-unused") == 1


def test_pragma_meta_findings_carry_the_pragma_line():
    findings = lint_fixture("pragma_cases.py")
    by_rule = {f.rule: f.line for f in findings}
    assert by_rule["pragma-missing-reason"] == marker_line(
        "pragma_cases.py", "MARK:pragma-missing-reason"
    )
    assert by_rule["pragma-unknown-rule"] == marker_line(
        "pragma_cases.py", "MARK:pragma-unknown-rule"
    )
    assert by_rule["pragma-unused"] == marker_line(
        "pragma_cases.py", "MARK:pragma-unused"
    )


def test_pragma_in_string_literal_is_inert():
    module = ModuleSource(
        Path("x.py"),
        'HINT = "# simlint: allow[no-wall-clock] reason=doc example"\n',
    )
    assert lint_source(module, all_rules()) == []


def test_violation_as_dict_and_location():
    violation = LintViolation(
        rule="no-wall-clock", path="a.py", line=3, column=7, message="m", hint="h"
    )
    assert violation.location == "a.py:3:7"
    payload = violation.as_dict()
    assert payload["rule"] == "no-wall-clock"
    assert payload["line"] == 3


def test_run_lint_exit_codes_and_json_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT = time.time()\n")
    report_path = tmp_path / "report.json"
    stream = io.StringIO()
    code = run_lint([bad], json_report=report_path, stream=stream)
    assert code == 1
    payload = json.loads(report_path.read_text())
    assert payload["violation_count"] == 1
    assert payload["violations"][0]["rule"] == "no-wall-clock"

    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    assert run_lint([clean], stream=io.StringIO()) == 0


def test_lint_paths_walks_directories():
    stream = io.StringIO()
    assert run_lint([FIXTURES], output_format="json", stream=stream) == 1
    report = json.loads(stream.getvalue())
    found = [
        (v["path"], v["line"], v["column"], v["rule"]) for v in report["violations"]
    ]
    assert found == sorted(found)
    assert any(rule == "no-direct-rng" for *_, rule in found)
    # Every file under the tree is visited, nested project fixtures included.
    assert report["files_checked"] == len(list(FIXTURES.rglob("*.py")))


def test_lint_leaves_the_working_directory_untouched(tmp_path, monkeypatch):
    root = FIXTURES / "project" / "kernel_violating"
    monkeypatch.chdir(tmp_path)
    for project in (False, True):
        run_lint([root], stream=io.StringIO(), project=project, project_root=root)
    assert list(tmp_path.iterdir()) == []
