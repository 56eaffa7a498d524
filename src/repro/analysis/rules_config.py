"""Config-contract rules: string references to real dataclass fields.

:class:`~repro.core.config.SimulationConfig` is referenced by *name* all
over the harness — CLI flag tables, scale-profile dicts, ``replace``
overrides, golden-case bases.  A typo in any of those strings fails at
run time (at best) or silently sweeps the wrong parameter (at worst).
These rules resolve the reference sites statically and check every name
against the real field list:

* ``unknown-config-field`` — keyword arguments of
  ``SimulationConfig(...)`` / ``base_config(...)`` / config
  ``.replace(...)`` calls, ``getattr``/``setattr`` with a literal name
  on a config-ish receiver, ``**``-unpacked module-level dicts, and the
  repo's field-name dict conventions (``*_PROFILE`` keys,
  ``*_CONFIG_FIELDS`` values);
* ``unknown-results-field`` — literal metric names handed to
  ``SweepTable.series(scheme, metric)``;
* ``config-field-unvalidated`` — a ``SimulationConfig`` dataclass field
  that ``__post_init__`` never touches.  A field must either be
  validated or consciously excused in place with a reasoned pragma.
  ``bool`` fields are exempt (every bool is valid).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional

from repro.analysis.engine import LintRule, LintViolation, ModuleSource, register

__all__ = [
    "ConfigFieldValidationRule",
    "UnknownConfigFieldRule",
    "UnknownResultsFieldRule",
    "config_field_names",
    "results_field_names",
]


def config_field_names() -> FrozenSet[str]:
    """The real field set of SimulationConfig (imported, never guessed)."""
    import dataclasses

    from repro.core.config import SimulationConfig

    return frozenset(f.name for f in dataclasses.fields(SimulationConfig))


def results_field_names() -> FrozenSet[str]:
    """Field names plus property names of Results (both are metrics)."""
    import dataclasses

    from repro.core.metrics import Results

    names = {f.name for f in dataclasses.fields(Results)}
    names.update(
        name
        for name, attr in vars(Results).items()
        if isinstance(attr, property)
    )
    return frozenset(names)


def _is_configish(node: ast.AST) -> bool:
    """Heuristic: does this expression name a simulation config?"""
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    else:
        return False
    lowered = name.lower()
    return "config" in lowered or lowered == "cfg"


def _module_level_dicts(module: ModuleSource) -> Dict[str, ast.AST]:
    """Module-level ``name = {...}`` / ``name = dict(...)`` assignments."""
    table: Dict[str, ast.AST] = {}
    body = getattr(module.tree, "body", [])
    for node in body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_dict = isinstance(value, ast.Dict) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "dict"
        )
        if not is_dict:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                table[target.id] = value
    return table


def _dict_string_keys(
    value: ast.AST, dicts: Dict[str, ast.AST], depth: int = 0
) -> Iterator[ast.Constant]:
    """Constant-string keys of a dict expression, following ``**`` spreads."""
    if depth > 4:
        return
    if isinstance(value, ast.Dict):
        for key, item in zip(value.keys, value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                yield key
            elif key is None:  # ``{**other, ...}`` spread
                yield from _dict_string_keys(item, dicts, depth + 1)
    elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        if value.func.id == "dict":
            for keyword in value.keywords:
                if keyword.arg is not None:
                    yield _keyword_as_constant(keyword)
                else:
                    yield from _dict_string_keys(keyword.value, dicts, depth + 1)
    elif isinstance(value, ast.Name) and value.id in dicts:
        yield from _dict_string_keys(dicts[value.id], dicts, depth + 1)


def _keyword_as_constant(keyword: ast.keyword) -> ast.Constant:
    """Wrap a ``dict(key=...)`` keyword as a locatable string constant."""
    constant = ast.Constant(value=keyword.arg)
    constant.lineno = keyword.value.lineno
    constant.col_offset = keyword.value.col_offset
    return constant


@register
class UnknownConfigFieldRule(LintRule):
    """Every string reference to a SimulationConfig field must exist."""

    id = "unknown-config-field"
    description = (
        "a name that is not a SimulationConfig field fails at run time "
        "(constructor/replace) or silently no-ops (profile dicts)"
    )
    hint = "check the field list in repro.core.config.SimulationConfig"

    #: Call targets whose keyword arguments are config fields.
    _CONSTRUCTORS = ("SimulationConfig", "base_config")

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        fields = config_field_names()
        dicts = _module_level_dicts(module)

        for name, value in dicts.items():
            if name.endswith("_PROFILE") or name.endswith("_BASE"):
                for key in _dict_string_keys(value, dicts):
                    if key.value not in fields:
                        yield self._unknown(module, key, key.value)
            elif name.endswith("_CONFIG_FIELDS") and isinstance(value, ast.Dict):
                for item in value.values:
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        if item.value not in fields:
                            yield self._unknown(module, item, item.value)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            yield from self._check_call(module, node, fields, dicts)

    def _check_call(
        self,
        module: ModuleSource,
        node: ast.Call,
        fields: FrozenSet[str],
        dicts: Dict[str, ast.AST],
    ) -> Iterator[LintViolation]:
        func = node.func
        is_constructor = (
            isinstance(func, ast.Name) and func.id in self._CONSTRUCTORS
        )
        is_replace = (
            isinstance(func, ast.Attribute)
            and func.attr == "replace"
            and _is_configish(func.value)
        )
        is_dc_replace = (
            module.qualified_name(func) == "dataclasses.replace"
            and node.args
            and _is_configish(node.args[0])
        )
        if is_constructor or is_replace or is_dc_replace:
            for keyword in node.keywords:
                if keyword.arg is not None:
                    if keyword.arg not in fields:
                        yield self._unknown(module, keyword.value, keyword.arg)
                else:
                    for key in _dict_string_keys(keyword.value, dicts):
                        if key.value not in fields:
                            yield self._unknown(module, key, key.value)
        if (
            isinstance(func, ast.Name)
            and func.id in ("getattr", "setattr", "hasattr")
            and len(node.args) >= 2
            and _is_configish(node.args[0])
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and node.args[1].value not in fields
        ):
            yield self._unknown(module, node.args[1], node.args[1].value)

    def _unknown(
        self, module: ModuleSource, node: ast.AST, name: str
    ) -> LintViolation:
        return self.violation(
            module, node, f"{name!r} is not a SimulationConfig field"
        )


@register
class UnknownResultsFieldRule(LintRule):
    """Literal metric names in ``.series(scheme, metric)`` must exist."""

    id = "unknown-results-field"
    description = (
        "SweepTable.series resolves its metric argument with getattr on "
        "Results; an unknown name only fails once a sweep has already run"
    )
    hint = "check repro.core.metrics.Results fields and properties"

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        fields = results_field_names()
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "series"
                and len(node.args) == 2
            ):
                continue
            metric = node.args[1]
            if (
                isinstance(metric, ast.Constant)
                and isinstance(metric.value, str)
                and metric.value not in fields
            ):
                yield self.violation(
                    module,
                    metric,
                    f"{metric.value!r} is not a Results field or property",
                )


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
