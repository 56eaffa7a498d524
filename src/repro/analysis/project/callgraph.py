"""A conservative call graph over the project index.

Edges are added only when a call's receiver is resolvable to exactly
one in-project symbol set: plain names (local or imported), ``self.m()``
through the in-project MRO, ``obj.m()`` where ``obj`` is a local whose
type is statically evident (constructor assignment or annotation),
``self.attr.m()`` through the class's recorded attribute types, and
constructor calls (an edge to ``Class.__init__``).  Everything else —
callbacks, duck-typed receivers, dynamic dispatch — resolves to nothing,
so reachability-based rules under-approximate instead of flagging noise.

The graph also records every resolved :class:`CallSite` per callee,
which is what lets ``kernel-transitive-hazard`` walk *backwards* from a
function parameter to the argument expressions feeding it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.analysis.engine import ModuleSource
from repro.analysis.project.index import (
    FunctionInfo,
    ProjectIndex,
    _annotation_class_names,
)

__all__ = ["CallGraph", "CallSite", "build_call_graph"]


@dataclass
class CallSite:
    """One resolved call: where it happens and what it calls."""

    callee: str  # callee qualname ("module.Class.__init__" for constructors)
    module: ModuleSource
    caller: Optional[FunctionInfo]  # None for module-level code
    call: ast.Call


@dataclass
class CallGraph:
    """Caller -> callee edges plus per-callee call sites."""

    edges: Dict[str, Set[str]] = field(default_factory=dict)
    sites: Dict[str, List[CallSite]] = field(default_factory=dict)

    def add(self, caller: Optional[str], site: CallSite) -> None:
        if caller is not None:
            self.edges.setdefault(caller, set()).add(site.callee)
        self.sites.setdefault(site.callee, []).append(site)

    def call_sites(self, qualname: str) -> List[CallSite]:
        return self.sites.get(qualname, [])

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every function qualname reachable from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen


def local_class_names(
    index: ProjectIndex, module: ModuleSource, function: FunctionInfo
) -> Dict[str, List[str]]:
    """Local name -> class qualnames it evidently holds, inside a function.

    Sources of evidence: ``x = ClassName(...)`` constructor assignments,
    ``x: T = ...`` annotated assignments and annotated parameters.  A name
    assigned anything opaque on top of a known type keeps the known
    candidates — the consumer treats multiple candidates as a union.
    """
    types: Dict[str, List[str]] = {}

    def note(name: str, class_qualname: Optional[str]) -> None:
        if class_qualname is not None and class_qualname in index.classes:
            types.setdefault(name, [])
            if class_qualname not in types[name]:
                types[name].append(class_qualname)

    args = function.node.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.annotation is not None:
            for bare in _annotation_class_names(arg.annotation):
                note(arg.arg, index.resolve_name(module, bare))
    for node in ast.walk(function.node):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        if not isinstance(target, ast.Name):
            continue
        if annotation is not None:
            for bare in _annotation_class_names(annotation):
                note(target.id, index.resolve_name(module, bare))
        if isinstance(value, ast.Call):
            qualname = index.resolve_call_target(module, value.func)
            if qualname is not None and qualname in index.classes:
                note(target.id, qualname)
    return types


def resolve_call(
    index: ProjectIndex,
    module: ModuleSource,
    caller: Optional[FunctionInfo],
    call: ast.Call,
    local_types: Optional[Dict[str, List[str]]] = None,
) -> List[str]:
    """Callee qualname candidates for one call node (a constructor call
    resolves to ``Class.__init__``)."""
    func = call.func
    direct = index.resolve_call_target(module, func)
    if direct is not None:
        if direct in index.classes:
            init = index.lookup_method(direct, "__init__")
            return [init.qualname] if init is not None else []
        return [direct]
    if not isinstance(func, ast.Attribute):
        return []
    receiver = func.value
    method_name = func.attr
    candidates: List[str] = []
    receiver_classes: List[str] = []
    if isinstance(receiver, ast.Name):
        if (
            receiver.id == "self"
            and caller is not None
            and caller.class_name is not None
        ):
            receiver_classes = [f"{caller.module}.{caller.class_name}"]
        elif local_types is not None:
            receiver_classes = local_types.get(receiver.id, [])
    elif (
        isinstance(receiver, ast.Attribute)
        and isinstance(receiver.value, ast.Name)
        and receiver.value.id == "self"
        and caller is not None
        and caller.class_name is not None
    ):
        own = f"{caller.module}.{caller.class_name}"
        receiver_classes = index.attr_classes(own, receiver.attr)
    for class_qualname in receiver_classes:
        method = index.lookup_method(class_qualname, method_name)
        if method is not None:
            candidates.append(method.qualname)
    return candidates


def _context_calls(
    function_node: ast.AST,
) -> Iterator[ast.Call]:
    """Calls belonging to this context (nested defs included, classes not)."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(function_node))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.ClassDef):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def build_call_graph(index: ProjectIndex) -> CallGraph:
    """Resolve every call in every indexed module into one graph."""
    graph = CallGraph()
    for module in index.modules.values():
        # Module-level code: top-level statements minus indexed defs.
        for statement in getattr(module.tree, "body", []):
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for node in ast.walk(statement):
                if isinstance(node, ast.Call):
                    for callee in resolve_call(index, module, None, node):
                        graph.add(None, CallSite(callee, module, None, node))
    for function in list(index.functions.values()):
        module = index.modules[function.module]
        local_types = local_class_names(index, module, function)
        for call in _context_calls(function.node):
            for callee in resolve_call(index, module, function, call, local_types):
                graph.add(
                    function.qualname, CallSite(callee, module, function, call)
                )
    return graph
