"""Config-contract rule: every SimulationConfig field is validated.

``config-field-unvalidated`` flags a
:class:`~repro.core.config.SimulationConfig` dataclass field that
``__post_init__`` never touches.  A field must either be validated or
consciously excused in place with a reasoned pragma.  ``bool`` fields
are exempt (every bool is valid).

A misspelt field *name* needs no lint: ``SimulationConfig(...)``,
``replace`` and ``from_dict`` reject unknown names at run time, and
the test suite builds every static profile dict.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.engine import LintRule, LintViolation, ModuleSource, register

__all__ = ["ConfigFieldValidationRule"]


@register
class ConfigFieldValidationRule(LintRule):
    """New SimulationConfig fields must be validated in __post_init__."""

    id = "config-field-unvalidated"
    severity = "warning"
    description = (
        "a field __post_init__ never reads has no contract; bad values "
        "surface deep inside a run instead of at construction"
    )
    hint = (
        "add a check in __post_init__, or consciously excuse the field with "
        "# simlint: allow[config-field-unvalidated] reason=..."
    )

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == "SimulationConfig":
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleSource, cls: ast.ClassDef
    ) -> Iterator[LintViolation]:
        post_init = next(
            (
                n
                for n in cls.body
                if isinstance(n, ast.FunctionDef) and n.name == "__post_init__"
            ),
            None,
        )
        validated = set()
        if post_init is not None:
            for node in ast.walk(post_init):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    validated.add(node.attr)
        for field in self._fields(cls):
            name = field.target.id  # type: ignore[union-attr]
            if name not in validated:
                yield self.violation(
                    module,
                    field,
                    f"field {name!r} is never read by __post_init__",
                )

    @staticmethod
    def _fields(cls: ast.ClassDef) -> List[ast.AnnAssign]:
        fields: List[ast.AnnAssign] = []
        for node in cls.body:
            if not (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
            ):
                continue
            if _annotation_name(node.annotation) in ("bool", "ClassVar"):
                continue
            fields.append(node)
        return fields


def _annotation_name(annotation: Optional[ast.AST]) -> str:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Subscript) and isinstance(
        annotation.value, ast.Name
    ):
        return annotation.value.id
    return ""
