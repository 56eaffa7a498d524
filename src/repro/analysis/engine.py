"""The simlint rule engine: sources, rules, pragmas, reports.

The engine is deliberately small: a :class:`ModuleSource` wraps one
parsed file (source text, AST, an import-alias table for resolving
dotted names like ``np.random.default_rng`` back to
``numpy.random.default_rng``); a :class:`LintRule` walks the AST and
yields structured :class:`LintViolation` records; :func:`lint_source`
applies every registered rule to one module and then the pragma layer;
:func:`repro.analysis.runner.run_lint` walks a source tree and reports.

Suppression has one mechanism, and it is audited:
``# simlint: allow[rule-id] reason=...`` on the offending line (or
``allow-file`` anywhere, for the whole file).  The reason is
**mandatory** — a pragma without one is itself a violation
(``pragma-missing-reason``), as is a pragma naming an unknown rule
(``pragma-unknown-rule``) or one that suppresses nothing
(``pragma-unused``).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:
    from repro.analysis.project.index import ProjectIndex

__all__ = [
    "LintRule",
    "LintViolation",
    "META_RULES",
    "ModuleSource",
    "ProjectRule",
    "all_project_rules",
    "all_rules",
    "apply_pragmas",
    "collect_findings",
    "display_path",
    "iter_python_files",
    "known_rule_ids",
    "lint_source",
    "project_rule_registry",
    "register",
    "register_project",
    "rule_registry",
]


@dataclass(frozen=True)
class LintViolation:
    """One finding: rule id, location, message and a concrete fix hint.

    ``scope`` distinguishes per-file AST findings (``"file"``) from
    whole-program findings (``"project"``), whose anchor line often
    belongs to code that is only *related* to the defect.
    ``start_line``/``end_line`` bound the pragma suppression window (0
    means "same as ``line``"): a violation anchored on a multiline
    statement is suppressible from any of its lines, and one anchored on
    a decorated ``def`` from the decorator lines as well.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    hint: str = ""
    severity: str = "error"
    scope: str = "file"
    start_line: int = 0
    end_line: int = 0

    @property
    def location(self) -> str:
        """``path:line:column`` — the clickable form used by reports."""
        return f"{self.path}:{self.line}:{self.column}"

    @property
    def suppression_window(self) -> Tuple[int, int]:
        """Inclusive line range an ``allow`` pragma may sit on."""
        start = self.start_line or self.line
        end = self.end_line or self.line
        return (min(start, self.line), max(end, self.line))

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (the ``--format json`` payload rows)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "hint": self.hint,
            "severity": self.severity,
            "scope": self.scope,
        }


class ModuleSource:
    """One parsed module: path, text, AST and an import-alias table."""

    def __init__(self, path: Path, text: str, display_path: Optional[str] = None):
        self.path = Path(path)
        self.display_path = display_path or self.path.as_posix()
        self.text = text
        self.module = _module_name(self.path)
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree: ast.AST = ast.parse(text)
        except SyntaxError as error:
            self.parse_error = error
            self.tree = ast.Module(body=[], type_ignores=[])
        self.imports = _import_table(self.tree)

    @classmethod
    def from_path(cls, path: Path, display_path: Optional[str] = None) -> "ModuleSource":
        return cls(path, Path(path).read_text(encoding="utf-8"), display_path)

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to its imported dotted name.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the module did
        ``import numpy as np``; names that do not lead back to an import
        resolve to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.imports.get(node.id)
        if base is None:
            return None
        return ".".join([base, *reversed(parts)]) if parts else base


def _module_name(path: Path) -> str:
    """Dotted module name for a file under a ``repro`` package tree."""
    parts = list(path.with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _import_table(tree: ast.AST) -> Dict[str, str]:
    """Map local aliases to the dotted names they import."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    table[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the top-level name ``a``.
                    top = alias.name.split(".")[0]
                    table[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{node.module}.{alias.name}"
    return table


class LintRule:
    """Base class: subclass, set the class attributes, implement ``check``.

    ``allow_modules`` lists dotted module names (exact matches) where the
    rule never fires — the sanctioned homes of otherwise-forbidden
    constructs (e.g. :mod:`repro.sim.random` is the one place allowed to
    build numpy generators).
    """

    id: str = ""
    severity: str = "error"
    description: str = ""
    hint: str = ""
    allow_modules: Tuple[str, ...] = ()

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        raise NotImplementedError

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module not in self.allow_modules

    def violation(
        self,
        module: ModuleSource,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> LintViolation:
        start, end = _suppression_window(node)
        return LintViolation(
            rule=self.id,
            path=module.display_path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint if hint is None else hint,
            severity=self.severity,
            start_line=start,
            end_line=end,
        )


def _suppression_window(node: ast.AST) -> Tuple[int, int]:
    """Lines an ``allow`` pragma may sit on for a finding anchored at ``node``.

    A ``def``/``class`` anchor accepts the pragma on any decorator line or
    header line (up to, not into, the body — a pragma inside the body
    belongs to body statements).  Any other anchor accepts it anywhere in
    the statement's physical extent, so multiline calls are suppressible
    from the closing-paren line too.
    """
    line = getattr(node, "lineno", 1)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        start = min([line, *(d.lineno for d in node.decorator_list)])
        end = node.body[0].lineno - 1 if node.body else getattr(node, "end_lineno", line)
        return start, max(end, line)
    return line, getattr(node, "end_lineno", None) or line


_REGISTRY: Dict[str, Type[LintRule]] = {}
_PROJECT_REGISTRY: Dict[str, Type["ProjectRule"]] = {}


def register(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY or cls.id in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


class ProjectRule:
    """Base class for whole-program rules (``repro lint --project``).

    Unlike :class:`LintRule`, a project rule sees the whole
    :class:`~repro.analysis.project.index.ProjectIndex` at once and may
    anchor findings in any module.  Findings carry ``scope="project"``.
    """

    id: str = ""
    severity: str = "error"
    description: str = ""
    hint: str = ""

    def check(self, project: "ProjectIndex") -> Iterator[LintViolation]:
        raise NotImplementedError

    def violation(
        self,
        module: ModuleSource,
        node: Optional[ast.AST],
        message: str,
        hint: Optional[str] = None,
    ) -> LintViolation:
        if node is None:
            line, column, window = 1, 1, (1, 1)
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0) + 1
            window = _suppression_window(node)
        return LintViolation(
            rule=self.id,
            path=module.display_path,
            line=line,
            column=column,
            message=message,
            hint=self.hint if hint is None else hint,
            severity=self.severity,
            scope="project",
            start_line=window[0],
            end_line=window[1],
        )


def register_project(cls: Type["ProjectRule"]) -> Type["ProjectRule"]:
    """Class decorator adding a whole-program rule to the registry."""
    if not cls.id:
        raise ValueError(f"project rule {cls.__name__} has no id")
    if cls.id in _PROJECT_REGISTRY or cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _PROJECT_REGISTRY[cls.id] = cls
    return cls


#: Engine-level findings about the suppression machinery itself.  They are
#: not suppressible (a pragma cannot vouch for another pragma).
META_RULES: Dict[str, str] = {
    "parse-error": "the file does not parse; nothing else was checked",
    "pragma-missing-reason": "allow pragmas must carry reason=...",
    "pragma-unknown-rule": "allow pragmas must name registered rules",
    "pragma-unused": "allow pragmas must suppress at least one finding",
}


def rule_registry() -> Dict[str, Type[LintRule]]:
    """The registered AST rules by id (imports the rule modules)."""
    # Imported here, not at module top, to avoid a cycle: rule modules
    # import this module for the base class and the register decorator.
    from repro.analysis import (  # noqa: F401
        rules_config,
        rules_determinism,
        rules_kernel,
    )

    return dict(_REGISTRY)


def project_rule_registry() -> Dict[str, Type["ProjectRule"]]:
    """The registered whole-program rules by id (imports the rule modules)."""
    from repro.analysis import (  # noqa: F401
        rules_project_config,
        rules_project_kernel,
    )

    return dict(_PROJECT_REGISTRY)


def all_rules() -> List[LintRule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [cls() for _, cls in sorted(rule_registry().items())]


def all_project_rules() -> List["ProjectRule"]:
    """Fresh instances of every whole-program rule, sorted by id."""
    return [cls() for _, cls in sorted(project_rule_registry().items())]


def known_rule_ids() -> Set[str]:
    """Every id a pragma may legally name (AST + project + meta rules)."""
    return set(rule_registry()) | set(project_rule_registry()) | set(META_RULES)


# -- pragmas -----------------------------------------------------------------

_PRAGMA_RE = re.compile(
    r"#\s*simlint:\s*(?P<scope>allow-file|allow)\[(?P<rules>[^\]]*)\](?P<rest>.*)$"
)
_REASON_RE = re.compile(r"\breason\s*=\s*\S")


@dataclass
class _Pragma:
    line: int
    scope: str  # "allow" or "allow-file"
    rules: List[str]
    has_reason: bool
    used: bool = False


def _comment_tokens(module: ModuleSource) -> Iterator[Tuple[int, str]]:
    """(line, text) of every real comment — string literals that merely
    *mention* a pragma (docs, hints) must not activate one."""
    import io
    import tokenize

    try:
        for token in tokenize.generate_tokens(io.StringIO(module.text).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):
        return


def _parse_pragmas(module: ModuleSource) -> List[_Pragma]:
    pragmas: List[_Pragma] = []
    for number, text in _comment_tokens(module):
        match = _PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = [r.strip() for r in match.group("rules").split(",") if r.strip()]
        pragmas.append(
            _Pragma(
                line=number,
                scope=match.group("scope"),
                rules=rules,
                has_reason=bool(_REASON_RE.search(match.group("rest"))),
            )
        )
    return pragmas


def _meta_violation(
    module: ModuleSource, rule: str, line: int, message: str, hint: str = ""
) -> LintViolation:
    return LintViolation(
        rule=rule,
        path=module.display_path,
        line=line,
        column=1,
        message=message,
        hint=hint,
    )


def collect_findings(
    module: ModuleSource, rules: Optional[Sequence[LintRule]] = None
) -> List[LintViolation]:
    """Raw per-file findings, before the pragma layer."""
    if module.parse_error is not None:
        line = module.parse_error.lineno or 1
        return [
            _meta_violation(
                module,
                "parse-error",
                line,
                f"syntax error: {module.parse_error.msg}",
            )
        ]
    found: List[LintViolation] = []
    seen: Set[LintViolation] = set()
    for rule in rules if rules is not None else all_rules():
        if not rule.applies_to(module):
            continue
        for violation in rule.check(module):
            # Overlapping detection sites (e.g. a dict checked both by
            # naming convention and through a ** spread) may report the
            # same finding twice; keep the first.
            if violation not in seen:
                seen.add(violation)
                found.append(violation)
    return found


def apply_pragmas(
    module: ModuleSource,
    found: Sequence[LintViolation],
    project: bool = False,
) -> List[LintViolation]:
    """Suppress ``found`` through the module's pragmas and audit them.

    Applied exactly once per module over the *merged* per-file and
    project-scope findings, so a pragma whose only job is excusing a
    whole-program finding still counts as used.  ``project`` states
    whether whole-program findings are part of ``found``: in a file-only
    run a pragma naming only project rules is exempt from the
    ``pragma-unused`` audit (its findings were never computed).
    """
    if module.parse_error is not None:
        return sorted(found, key=lambda v: (v.line, v.column, v.rule))
    pragmas = _parse_pragmas(module)
    known = known_rule_ids()
    results: List[LintViolation] = []
    for pragma in pragmas:
        if not pragma.has_reason:
            results.append(
                _meta_violation(
                    module,
                    "pragma-missing-reason",
                    pragma.line,
                    "allow pragma without a reason",
                    hint="write # simlint: allow[rule] reason=<why this is safe>",
                )
            )
        for rule_id in pragma.rules:
            if rule_id not in known:
                results.append(
                    _meta_violation(
                        module,
                        "pragma-unknown-rule",
                        pragma.line,
                        f"allow pragma names unknown rule {rule_id!r}",
                        hint="run 'repro lint --rules' for the rule catalogue",
                    )
                )
            elif rule_id in META_RULES:
                results.append(
                    _meta_violation(
                        module,
                        "pragma-unknown-rule",
                        pragma.line,
                        f"meta rule {rule_id!r} cannot be suppressed by pragma",
                    )
                )

    for violation in found:
        if _suppressed(violation, pragmas):
            continue
        results.append(violation)

    project_ids = set(project_rule_registry())
    for pragma in pragmas:
        if pragma.has_reason and not pragma.used and all(r in known for r in pragma.rules):
            if not project and pragma.rules and all(
                r in project_ids for r in pragma.rules
            ):
                continue
            results.append(
                _meta_violation(
                    module,
                    "pragma-unused",
                    pragma.line,
                    f"allow pragma for {', '.join(pragma.rules) or '(nothing)'} "
                    "suppressed no finding",
                    hint="delete the pragma; the code it excused is gone",
                )
            )
    results.sort(key=lambda v: (v.line, v.column, v.rule))
    return results


def lint_source(
    module: ModuleSource, rules: Optional[Sequence[LintRule]] = None
) -> List[LintViolation]:
    """Apply every rule plus the pragma layer to one module."""
    return apply_pragmas(module, collect_findings(module, rules))


def _suppressed(violation: LintViolation, pragmas: List[_Pragma]) -> bool:
    if violation.rule in META_RULES:
        return False
    start, end = violation.suppression_window
    for pragma in pragmas:
        if violation.rule not in pragma.rules:
            continue
        if pragma.scope == "allow-file" or start <= pragma.line <= end:
            pragma.used = True
            return True
    return False


# -- tree walking ------------------------------------------------------------


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    seen: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def display_path(path: Path) -> str:
    """Repo-relative posix path when possible (stable report rows)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()

