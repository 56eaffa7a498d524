"""The ``repro lint`` front end: collect, apply pragmas, report.

:func:`run_lint` is the single entry point the CLI (and the test suite)
drives: lint the given paths (per-file rules, plus the whole-program
pass with ``project=True``), render text or JSON, and map the outcome
to a process exit code (0 = clean, 1 = findings; 2 = usage error, which
argparse raises in the CLI layer).

The pragma layer runs once per module over the *merged* per-file and
whole-program findings, so a pragma whose only job is excusing a
whole-program finding still counts as used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO

from repro.analysis.engine import (
    META_RULES,
    LintViolation,
    ModuleSource,
    all_project_rules,
    all_rules,
    apply_pragmas,
    collect_findings,
    display_path,
    iter_python_files,
)

__all__ = ["LintOutcome", "render_rule_catalogue", "run_lint"]


@dataclass
class LintOutcome:
    """Everything one lint invocation found."""

    violations: List[LintViolation] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, object]:
        """The ``--format json`` payload (also the CI artifact)."""
        return {
            "files_checked": len(self.files),
            "violation_count": len(self.violations),
            "counts_by_rule": self.counts_by_rule(),
            "violations": [v.as_dict() for v in self.violations],
        }

    def render_text(self) -> str:
        lines: List[str] = []
        for violation in self.violations:
            lines.append(
                f"{violation.location}: {violation.rule}: {violation.message}"
            )
            if violation.hint:
                lines.append(f"    hint: {violation.hint}")
        lines.append(
            f"simlint: {len(self.files)} file(s), "
            f"{len(self.violations)} finding(s)"
        )
        return "\n".join(lines)


def run_lint(
    paths: Sequence[Path],
    output_format: str = "text",
    json_report: Optional[Path] = None,
    stream: Optional[TextIO] = None,
    project: bool = False,
    project_root: Optional[Path] = None,
) -> int:
    """Lint ``paths`` and print a report; returns the exit code.

    ``project=True`` additionally runs the whole-program rules over the
    full file set (they read DESIGN.md and EXPERIMENTS.md under
    ``project_root``, default the working directory).  ``json_report`` additionally writes the JSON payload to
    a file whatever ``output_format`` says (the CI artifact path).
    """
    import sys

    out = stream if stream is not None else sys.stdout
    modules = [
        ModuleSource.from_path(file_path, display_path(file_path))
        for file_path in iter_python_files(paths)
    ]
    rules = all_rules()
    found = {m.display_path: collect_findings(m, rules) for m in modules}
    if project:
        from repro.analysis.project.index import ProjectIndex

        index = ProjectIndex(modules, project_root=project_root)
        for project_rule in all_project_rules():
            for violation in project_rule.check(index):
                found[violation.path].append(violation)
    outcome = LintOutcome(files=[m.display_path for m in modules])
    for module in modules:
        outcome.violations.extend(
            apply_pragmas(module, found[module.display_path], project=project)
        )
    outcome.violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))

    if json_report is not None:
        Path(json_report).write_text(
            json.dumps(outcome.as_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    if output_format == "json":
        print(json.dumps(outcome.as_dict(), indent=2, sort_keys=True), file=out)
    else:
        print(outcome.render_text(), file=out)
    return outcome.exit_code


def render_rule_catalogue() -> str:
    """The ``--rules`` listing: every rule id with its one-line contract."""
    lines = ["simlint rules:"]
    for rule in all_rules():
        lines.append(f"  {rule.id} [{rule.severity}]")
        lines.append(f"      {rule.description}")
        if rule.allow_modules:
            lines.append(f"      allowlisted: {', '.join(rule.allow_modules)}")
    lines.append("whole-program rules (require --project):")
    for project_rule in all_project_rules():
        lines.append(f"  {project_rule.id} [{project_rule.severity}]")
        lines.append(f"      {project_rule.description}")
    lines.append("meta rules (engine-level, not suppressible):")
    for rule_id, description in sorted(META_RULES.items()):
        lines.append(f"  {rule_id}: {description}")
    return "\n".join(lines)
