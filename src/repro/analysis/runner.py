"""The ``repro lint`` front end: caching, baseline application, reports.

:func:`run_lint` is the single entry point the CLI (and the test suite)
drives: lint the given paths (per-file rules, plus the whole-program
pass with ``project=True``), split findings against the baseline,
render text or JSON, optionally rewrite or prune the baseline, and map
the outcome to a process exit code (0 = clean or fully grandfathered,
1 = new findings, 2 = usage error — handled by the CLI layer).

The pipeline is arranged so the incremental cache stays sound:

1. every file's *raw* findings come from the cache or
   :func:`~repro.analysis.engine.collect_findings` (pure per-file);
2. the whole-program findings come from the project cache or the
   project rules (pure in all files + the docs they read);
3. the pragma layer then runs over the *merged* findings of each
   module, every run — so pragma edits need no cache entry, and a
   pragma whose only job is excusing a whole-program finding still
   counts as used.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, TextIO, Tuple

from repro.analysis.baseline import Baseline, fingerprint
from repro.analysis.cache import (
    DEFAULT_CACHE_DIR,
    LintCache,
    file_key,
    project_key,
)
from repro.analysis.engine import (
    META_RULES,
    LintViolation,
    ModuleSource,
    all_project_rules,
    apply_pragmas,
    collect_findings,
    display_path,
    iter_python_files,
)

__all__ = ["DEFAULT_BASELINE", "LintOutcome", "render_rule_catalogue", "run_lint"]

#: The committed baseline at the repo root.
DEFAULT_BASELINE = Path("simlint-baseline.json")


@dataclass
class LintOutcome:
    """Everything one lint invocation decided."""

    new: List[LintViolation] = field(default_factory=list)
    grandfathered: List[LintViolation] = field(default_factory=list)
    stale_baseline: List[str] = field(default_factory=list)
    files: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.new:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, object]:
        """The ``--format json`` payload (also the CI artifact)."""
        return {
            "files_checked": len(self.files),
            "new_count": len(self.new),
            "grandfathered_count": len(self.grandfathered),
            "stale_baseline": list(self.stale_baseline),
            "counts_by_rule": self.counts_by_rule(),
            "violations": [v.as_dict() for v in self.new],
            "grandfathered": [v.as_dict() for v in self.grandfathered],
        }

    def render_text(self) -> str:
        lines: List[str] = []
        for violation in self.new:
            lines.append(
                f"{violation.location}: {violation.rule}: {violation.message}"
            )
            if violation.hint:
                lines.append(f"    hint: {violation.hint}")
        summary = (
            f"simlint: {len(self.files)} file(s), "
            f"{len(self.new)} new finding(s), "
            f"{len(self.grandfathered)} grandfathered"
        )
        if self.stale_baseline:
            summary += f", {len(self.stale_baseline)} stale baseline entr(ies)"
        lines.append(summary)
        if self.stale_baseline:
            lines.append(
                "    hint: prune stale entries with "
                "'python -m repro lint --prune-baseline'"
            )
        return "\n".join(lines)


def _load_modules(paths: Sequence[Path]) -> List[ModuleSource]:
    return [
        ModuleSource.from_path(file_path, display_path(file_path))
        for file_path in iter_python_files(paths)
    ]


def _file_findings(
    modules: Sequence[ModuleSource], cache: Optional[LintCache]
) -> Dict[str, List[LintViolation]]:
    """display path -> raw per-file findings (cache-aware)."""
    findings: Dict[str, List[LintViolation]] = {}
    for module in modules:
        cached = (
            cache.get("file", file_key(module.display_path, module.text))
            if cache is not None
            else None
        )
        if cached is None:
            cached = collect_findings(module)
            if cache is not None:
                cache.put(
                    "file", file_key(module.display_path, module.text), cached
                )
        findings[module.display_path] = cached
    return findings


def _project_findings(
    modules: Sequence[ModuleSource],
    cache: Optional[LintCache],
    project_root: Optional[Path],
) -> List[LintViolation]:
    """Whole-program findings over the full module set (cache-aware)."""
    key = project_key(
        [file_key(m.display_path, m.text) for m in modules], project_root
    )
    cached = cache.get("project", key) if cache is not None else None
    if cached is not None:
        return cached
    from repro.analysis.project.index import ProjectIndex

    index = ProjectIndex(modules, project_root=project_root or Path("."))
    found: List[LintViolation] = []
    for rule in all_project_rules():
        found.extend(rule.check(index))
    if cache is not None:
        cache.put("project", key, found)
    return found


def _collect(
    paths: Sequence[Path],
    project: bool,
    cache: Optional[LintCache],
    project_root: Optional[Path],
) -> Tuple[List[Tuple[LintViolation, str]], List[str]]:
    """Lint every file; pair each finding with its source line text."""
    modules = _load_modules(paths)
    per_file = _file_findings(modules, cache)
    per_module_project: Dict[str, List[LintViolation]] = {}
    if project:
        for violation in _project_findings(modules, cache, project_root):
            per_module_project.setdefault(violation.path, []).append(violation)
    pairs: List[Tuple[LintViolation, str]] = []
    files: List[str] = []
    for module in modules:
        files.append(module.display_path)
        merged = (
            per_file[module.display_path]
            + per_module_project.get(module.display_path, [])
        )
        for violation in apply_pragmas(module, merged, project=project):
            pairs.append((violation, module.source_line(violation.line)))
    pairs.sort(key=lambda p: (p[0].path, p[0].line, p[0].column, p[0].rule))
    return pairs, files


def run_lint(
    paths: Sequence[Path],
    baseline_path: Optional[Path] = None,
    update_baseline: bool = False,
    prune_baseline: bool = False,
    output_format: str = "text",
    json_report: Optional[Path] = None,
    stream: Optional[TextIO] = None,
    project: bool = False,
    use_cache: bool = True,
    cache_dir: Optional[Path] = None,
    project_root: Optional[Path] = None,
) -> int:
    """Lint ``paths`` and print a report; returns the exit code.

    ``baseline_path=None`` means "no baseline" (everything is new);
    the CLI passes :data:`DEFAULT_BASELINE` when the flag is omitted.
    ``project=True`` additionally runs the whole-program rules over the
    full file set.  ``update_baseline`` rewrites the baseline to
    grandfather exactly the current findings (a no-op when nothing
    changed — the file stays byte-identical); ``prune_baseline`` only
    garbage-collects entries that no longer match, refusing to touch
    ones that still fire.  ``json_report`` additionally writes the JSON
    payload to a file whatever ``output_format`` says (the CI artifact
    path).
    """
    import sys

    out = stream if stream is not None else sys.stdout
    if project_root is None:
        project_root = Path(".")
    cache = (
        LintCache(cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
        if use_cache
        else None
    )
    pairs, files = _collect(paths, project, cache, project_root)

    baseline = (
        Baseline.load(baseline_path) if baseline_path is not None else Baseline()
    )
    if update_baseline:
        if baseline_path is None:
            raise ValueError("--update-baseline needs a baseline path")
        # Meta findings (broken pragmas, parse errors) are never
        # grandfathered: they are defects of the suppression machinery.
        keep = [(v, line) for v, line in pairs if v.rule not in META_RULES]
        rebuilt = Baseline.from_violations(keep, reasons=baseline.reasons())
        changed = rebuilt.save(baseline_path)
        skipped = len(pairs) - len(keep)
        if changed:
            message = (
                f"simlint: baseline {baseline_path} rewritten with "
                f"{len(keep)} entr(ies)"
            )
        else:
            message = f"simlint: baseline {baseline_path} already up to date"
        if skipped:
            message += f"; {skipped} meta finding(s) NOT grandfathered"
        print(message, file=out)
        return 1 if skipped else 0

    new, grandfathered, stale = baseline.split(pairs)

    if prune_baseline:
        if baseline_path is None:
            raise ValueError("--prune-baseline needs a baseline path")
        pruned, removed = baseline.pruned(stale)
        for entry in removed:
            print(
                f"simlint: pruned {entry.get('fingerprint')} "
                f"[{entry.get('rule')}] {entry.get('path')}: "
                f"{entry.get('note')}",
                file=out,
            )
        if removed:
            pruned.save(baseline_path)
            print(
                f"simlint: baseline {baseline_path} pruned "
                f"({len(removed)} stale entr(ies) removed, "
                f"{len(pruned.entries)} kept)",
                file=out,
            )
        else:
            print(
                f"simlint: baseline {baseline_path} has no stale entries",
                file=out,
            )
        return 0

    outcome = LintOutcome(
        new=new, grandfathered=grandfathered, stale_baseline=stale, files=files
    )
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
    from repro.analysis.engine import all_rules

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
