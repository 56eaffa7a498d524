"""Registry/docs/conformance three-way consistency.

Three policy namespaces resolve by string key (docs/POLICIES.md); the
key surface lives in three places that can silently drift apart: the
``@register``/``register_value`` calls in the code, the operator-facing
catalogue in ``docs/POLICIES.md``, and the conformance battery (which
covers exactly the keys the registry's ``_load_builtins`` imports make
visible).  ``registry-consistency`` checks all three against each other:

* **registered-but-undocumented** — a key registered in code that
  ``docs/POLICIES.md`` never mentions in backticks;
* **documented-but-unregistered** — a catalogue-table key with no
  registration site in the code;
* **registered-but-unreachable** — a registration in a module the
  registry's ``_load_builtins`` import closure never reaches, so
  ``conformance_keys()`` cannot see it and the battery never runs it;
* when the *real* registry is in the linted file set, the static scan is
  additionally cross-checked against the runtime registry
  (:mod:`repro.policies.introspection`) in both directions.

The scan is static (string-literal namespaces/keys), so it works on
lint fixtures that ship their own miniature registry; dynamic
registrations with computed keys are invisible to it — the runtime
cross-check is what catches those drifting.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import (
    LintViolation,
    ModuleSource,
    ProjectRule,
    register_project,
)
from repro.analysis.project.index import ProjectIndex

__all__ = ["RegistryConsistencyRule"]


@dataclass
class _Registration:
    """One static ``register``/``register_value`` site."""

    namespace: str
    key: str
    module: ModuleSource
    anchor: ast.AST  # the decorated def, or the call itself


def _string_tuple(value: ast.expr) -> List[str]:
    if not isinstance(value, (ast.Tuple, ast.List)):
        return []
    items: List[str] = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            items.append(element.value)
    return items


def _find_registry_module(
    project: ProjectIndex,
) -> Tuple[Optional[ModuleSource], Tuple[str, ...]]:
    """The module defining NAMESPACES + _load_builtins, and its namespaces."""
    for module in project.modules.values():
        namespaces: List[str] = []
        has_loader = False
        for node in getattr(module.tree, "body", []):
            if isinstance(node, ast.FunctionDef) and node.name == "_load_builtins":
                has_loader = True
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if (
                isinstance(target, ast.Name)
                and target.id == "NAMESPACES"
                and value is not None
            ):
                namespaces = _string_tuple(value)
        if has_loader and namespaces:
            return module, tuple(namespaces)
    return None, ()


def _registration_call(call: ast.Call, module: ModuleSource) -> Optional[Tuple[str, str]]:
    """(namespace, key) if this call is a literal register/register_value."""
    func = call.func
    bare = (
        func.id
        if isinstance(func, ast.Name)
        else func.attr if isinstance(func, ast.Attribute) else ""
    )
    if bare not in ("register", "register_value"):
        return None
    dotted = module.qualified_name(func)
    if dotted is not None and not dotted.endswith((".register", ".register_value")):
        return None
    if len(call.args) < 2:
        return None
    namespace_arg, key_arg = call.args[0], call.args[1]
    if not (
        isinstance(namespace_arg, ast.Constant)
        and isinstance(namespace_arg.value, str)
        and isinstance(key_arg, ast.Constant)
        and isinstance(key_arg.value, str)
    ):
        return None
    return namespace_arg.value, key_arg.value


def _collect_registrations(
    project: ProjectIndex, namespaces: Tuple[str, ...]
) -> List[_Registration]:
    found: List[_Registration] = []
    for module in project.modules.values():
        decorator_calls: Set[int] = set()
        # Decorator registrations anchor at the decorated definition, so
        # the allow pragma sits on the def (or its decorators).
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for decorator in node.decorator_list:
                if not isinstance(decorator, ast.Call):
                    continue
                pair = _registration_call(decorator, module)
                if pair is not None and pair[0] in namespaces:
                    decorator_calls.add(id(decorator))
                    found.append(_Registration(pair[0], pair[1], module, node))
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or id(node) in decorator_calls:
                continue
            pair = _registration_call(node, module)
            if pair is not None and pair[0] in namespaces:
                found.append(_Registration(pair[0], pair[1], module, node))
    return found


def _loader_import_closure(
    project: ProjectIndex, registry_module: ModuleSource
) -> Set[str]:
    """Modules reachable from ``_load_builtins`` via in-project imports."""

    def imports_of(module: ModuleSource, root: Optional[ast.AST] = None) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(root if root is not None else module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                names.add(node.module)
                for alias in node.names:
                    names.add(f"{node.module}.{alias.name}")
        return {name for name in names if name in project.modules}

    loader = next(
        (
            node
            for node in getattr(registry_module.tree, "body", [])
            if isinstance(node, ast.FunctionDef) and node.name == "_load_builtins"
        ),
        None,
    )
    if loader is None:
        return set()
    closure: Set[str] = set()
    frontier = imports_of(registry_module, loader)
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        closure.add(name)
        frontier |= imports_of(project.modules[name]) - closure
    return closure


@register_project
class RegistryConsistencyRule(ProjectRule):
    """Registered, documented and battery-covered keys must agree."""

    id = "registry-consistency"
    description = (
        "the policy key surface lives in three places — register() calls, "
        "the docs/POLICIES.md catalogue, and the conformance battery's "
        "import closure — and any pairwise drift means an invisible, "
        "undocumented or untested policy"
    )
    hint = (
        "register the key, add it to the docs/POLICIES.md catalogue, and "
        "make sure _load_builtins imports its module"
    )

    def check(self, project: ProjectIndex) -> Iterator[LintViolation]:
        registry_module, namespaces = _find_registry_module(project)
        if registry_module is None:
            return
        registrations = _collect_registrations(project, namespaces)
        doc_text = project.read_doc("docs/POLICIES.md") or ""

        from repro.policies.introspection import (
            documented_keys,
            parse_catalogue_rows,
        )

        documented = documented_keys(doc_text) if doc_text else set()
        catalogue = parse_catalogue_rows(doc_text, namespaces) if doc_text else []
        registered_pairs = {(r.namespace, r.key) for r in registrations}

        if doc_text:
            for registration in registrations:
                if registration.key not in documented:
                    yield self.violation(
                        registration.module,
                        registration.anchor,
                        f"{registration.namespace} policy "
                        f"{registration.key!r} is registered but never "
                        "mentioned in docs/POLICIES.md",
                    )
            for namespace, key in sorted(set(catalogue)):
                if (namespace, key) not in registered_pairs:
                    yield self.violation(
                        registry_module,
                        None,
                        f"docs/POLICIES.md documents {namespace} policy "
                        f"{key!r} but no register() site exists for it",
                    )

        closure = _loader_import_closure(project, registry_module)
        for registration in registrations:
            module_name = registration.module.module
            if module_name == registry_module.module or module_name in closure:
                continue
            yield self.violation(
                registration.module,
                registration.anchor,
                f"{registration.namespace} policy {registration.key!r} is "
                f"registered in {module_name}, which _load_builtins never "
                "imports — conformance_keys() cannot cover it",
            )

        if registry_module.module == "repro.policies.registry":
            yield from self._runtime_cross_check(
                project, registry_module, registered_pairs
            )

    def _runtime_cross_check(
        self,
        project: ProjectIndex,
        registry_module: ModuleSource,
        registered_pairs: Set[Tuple[str, str]],
    ) -> Iterator[LintViolation]:
        try:
            from repro.policies.introspection import registered_policies

            runtime: Dict[str, List[str]] = registered_policies()
        except Exception:  # pragma: no cover - import errors surface elsewhere
            return
        runtime_pairs = {
            (namespace, key)
            for namespace, keys in runtime.items()
            for key in keys
        }
        for namespace, key in sorted(runtime_pairs - registered_pairs):
            yield self.violation(
                registry_module,
                None,
                f"{namespace} policy {key!r} exists at runtime but no "
                "literal register() site was found — dynamic registration "
                "defeats the static consistency checks",
            )
        for namespace, key in sorted(registered_pairs - runtime_pairs):
            yield self.violation(
                registry_module,
                None,
                f"{namespace} policy {key!r} has a register() site but is "
                "missing from the runtime registry — the registration "
                "never executes",
            )
