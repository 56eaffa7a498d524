"""Every simlint rule catches its seeded fixture violation (id + line)."""

from pathlib import Path

import pytest

from repro.analysis.engine import ModuleSource, all_rules, lint_source

FIXTURES = Path(__file__).parent / "lint_fixtures"


def findings_for(name):
    module = ModuleSource.from_path(FIXTURES / name)
    return lint_source(module, all_rules())


def marker_line(name, marker):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    for number, line in enumerate(text.splitlines(), start=1):
        if marker in line:
            return number
    raise AssertionError(f"marker {marker!r} not found in {name}")


DETERMINISM_CASES = [
    ("no-direct-rng", "MARK:no-direct-rng"),
    ("no-wall-clock", "MARK:no-wall-clock"),
    ("no-wall-clock", "MARK:no-wall-clock-datetime"),
    ("set-iteration-order", "MARK:set-iteration-order"),
]


@pytest.mark.parametrize("rule_id,marker", DETERMINISM_CASES)
def test_determinism_rules_catch_seeded_violations(rule_id, marker):
    findings = findings_for("determinism_violations.py")
    line = marker_line("determinism_violations.py", marker)
    assert any(
        f.rule == rule_id and f.line == line for f in findings
    ), f"{rule_id} not reported at line {line}: {findings}"


KERNEL_CASES = [
    ("kernel-blocking-call", "MARK:kernel-blocking-call"),
    ("kernel-stale-now", "MARK:kernel-stale-now"),
]


@pytest.mark.parametrize("rule_id,marker", KERNEL_CASES)
def test_kernel_rules_catch_seeded_violations(rule_id, marker):
    findings = findings_for("kernel_violations.py")
    line = marker_line("kernel_violations.py", marker)
    assert any(
        f.rule == rule_id and f.line == line for f in findings
    ), f"{rule_id} not reported at line {line}: {findings}"


def test_elapsed_time_subtraction_is_not_flagged():
    findings = findings_for("kernel_violations.py")
    lines = {
        marker_line("kernel_violations.py", "return env.now - started"),
    }
    assert not any(f.line in lines for f in findings)


def test_unvalidated_config_field_rule_fires_on_synthetic_class(tmp_path):
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class SimulationConfig:\n"
        "    checked: int = 1\n"
        "    unchecked: int = 2\n"
        "    flag: bool = True\n"
        "    def __post_init__(self):\n"
        "        if self.checked < 0:\n"
        "            raise ValueError('checked')\n"
    )
    path = tmp_path / "synthetic_config.py"
    path.write_text(source)
    findings = lint_source(ModuleSource.from_path(path), all_rules())
    flagged = [f for f in findings if f.rule == "config-field-unvalidated"]
    assert [f.line for f in flagged] == [5]  # unchecked only; bools exempt
    assert flagged[0].severity == "warning"


def test_rules_have_descriptions_and_hints():
    for rule in all_rules():
        assert rule.id
        assert rule.description
        assert rule.hint


HOT_ALLOC_MARKS = [
    "MARK:kernel-hot-alloc-display",
    "MARK:kernel-hot-alloc-call",
    "MARK:kernel-hot-alloc-comp",
]


@pytest.mark.parametrize("marker", HOT_ALLOC_MARKS)
def test_hot_alloc_rule_catches_dispatch_loop_allocations(marker):
    findings = findings_for("kernel_violations.py")
    line = marker_line("kernel_violations.py", marker)
    assert any(
        f.rule == "kernel-hot-alloc" and f.line == line for f in findings
    ), f"kernel-hot-alloc not reported at line {line}: {findings}"


def test_hot_alloc_rule_spares_non_dispatch_code_and_honors_pragmas():
    findings = [
        f for f in findings_for("kernel_violations.py")
        if f.rule == "kernel-hot-alloc"
    ]
    flagged_lines = {f.line for f in findings}
    hoisted = marker_line("kernel_violations.py", "hoisted = []")
    escaped = marker_line("kernel_violations.py", "reason=fixture shows")
    quiet = marker_line("kernel_violations.py", "dict(a=1)")
    assert hoisted not in flagged_lines  # allocation outside any loop
    assert escaped not in flagged_lines  # pragma suppression works
    assert quiet not in flagged_lines  # methods other than run/step
    assert len(findings) == len(HOT_ALLOC_MARKS)

