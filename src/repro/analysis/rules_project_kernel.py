"""Transitive DES-kernel discipline: hazards in reachable helpers.

The per-file kernel rules stop at the process body's own statements —
moving a blocking call into a helper function was an escape hatch.  This
rule closes it: it computes the set of functions reachable (through the
conservative call graph) from any kernel root — a process generator or a
scheduler dispatch method (``run``/``step`` on an ``*Environment``
class) — and promotes the per-file hazards into them:

* a **blocking call** anywhere in a reachable helper;
* a **wall-clock read** in a reachable helper whose module the per-file
  ``no-wall-clock`` rule allowlists (the promotion matters exactly
  there: profiling code is fine until the kernel can reach it);
* **interprocedural set iteration** — a call site passes a provably-set
  argument and the reachable callee iterates that parameter (hash order
  flows into simulated behaviour across the call);
* a **per-event allocation** (comprehension, generator expression,
  container display, ``list()``-family call, lambda) anywhere in a
  helper reachable from a dispatch method — the dispatch loop pays it
  at event rate.

All four report under one id, ``kernel-transitive-hazard``, with the
kind spelled out in the message.  The blocking and allocation kinds run
the per-file rules' own matchers
(:func:`~repro.analysis.rules_kernel.blocking_calls`,
:func:`~repro.analysis.rules_kernel.allocation`), so what is a hazard in
a process body or dispatch loop is the same hazard one call away.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.engine import (
    LintViolation,
    ModuleSource,
    ProjectRule,
    register_project,
)
from repro.analysis.project.callgraph import CallGraph, build_call_graph
from repro.analysis.project.index import FunctionInfo, ProjectIndex
from repro.analysis.rules_determinism import (
    _WALL_CLOCK_CALLS,
    NoWallClockRule,
    _is_set_expression,
    _set_bindings,
)
from repro.analysis.rules_kernel import (
    _own_nodes,
    allocation,
    blocking_calls,
    is_process_generator,
)

__all__ = ["KernelTransitiveHazardRule"]


def _is_dispatch_method(function: FunctionInfo) -> bool:
    return (
        function.class_name is not None
        and "Environment" in function.class_name
        and function.name in ("run", "step")
    )


def _positional_params(function: FunctionInfo) -> List[str]:
    args = function.node.args
    names = [a.arg for a in [*args.posonlyargs, *args.args]]
    if function.is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


@register_project
class KernelTransitiveHazardRule(ProjectRule):
    """Kernel discipline must hold in every reachable helper."""

    id = "kernel-transitive-hazard"
    description = (
        "a helper reachable from the event loop inherits the kernel's "
        "discipline: no blocking calls, no wall clock, no hash-ordered "
        "iteration, no per-event allocation on the dispatch path"
    )
    hint = (
        "hoist the hazard out of the kernel-reachable path, or excuse a "
        "deliberate one with # simlint: allow[kernel-transitive-hazard] "
        "reason=..."
    )

    def check(self, project: ProjectIndex) -> Iterator[LintViolation]:
        graph = build_call_graph(project)
        process_roots = {
            f.qualname
            for f in project.functions.values()
            if is_process_generator(f.node)
        }
        dispatch_roots = {
            f.qualname for f in project.functions.values() if _is_dispatch_method(f)
        }
        reachable = graph.reachable(process_roots | dispatch_roots)
        dispatch_reachable = graph.reachable(dispatch_roots)

        for qualname in sorted(reachable):
            function = project.functions.get(qualname)
            if function is None:
                continue
            module = project.modules[function.module]
            in_process_root = qualname in process_roots
            if not in_process_root:
                yield from self._blocking(module, function)
                yield from self._wall_clock(module, function)
            if qualname in dispatch_reachable and qualname not in dispatch_roots:
                yield from self._allocations(module, function)
        yield from self._set_flow(project, graph, reachable)

    # -- hazard kinds ---------------------------------------------------------

    def _blocking(
        self, module: ModuleSource, function: FunctionInfo
    ) -> Iterator[LintViolation]:
        for node, what in blocking_calls(module, function.node):
            yield self.violation(
                module,
                node,
                f"{what} in {function.name}(), reachable from the kernel",
            )

    def _wall_clock(
        self, module: ModuleSource, function: FunctionInfo
    ) -> Iterator[LintViolation]:
        if module.module not in NoWallClockRule.allow_modules:
            return  # the per-file rule already polices this module
        for node in _own_nodes(function.node):
            if not isinstance(node, ast.Call):
                continue
            name = module.qualified_name(node.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.violation(
                    module,
                    node,
                    f"wall-clock read {name}() in {function.name}() is "
                    "allowlisted per-file but reachable from the kernel",
                )

    def _allocations(
        self, module: ModuleSource, function: FunctionInfo
    ) -> Iterator[LintViolation]:
        for node in _own_nodes(function.node):
            what = allocation(module, node)
            if what is not None:
                yield self.violation(
                    module,
                    node,
                    f"{what} in {function.name}() allocates on the "
                    "dispatch path (paid per event)",
                )

    def _set_flow(
        self,
        project: ProjectIndex,
        graph: CallGraph,
        reachable: Set[str],
    ) -> Iterator[LintViolation]:
        # (callee, param) pairs fed a provably-set argument somewhere.
        tainted: Dict[Tuple[str, str], str] = {}
        for qualname in sorted(reachable):
            callee = project.functions.get(qualname)
            if callee is None:
                continue
            params = _positional_params(callee)
            for site in graph.call_sites(qualname):
                caller_sets = (
                    _set_bindings(site.caller.node) if site.caller is not None else {}
                )
                for position, argument in enumerate(site.call.args):
                    if position >= len(params):
                        break
                    if _is_set_expression(argument) or (
                        isinstance(argument, ast.Name) and argument.id in caller_sets
                    ):
                        tainted.setdefault(
                            (qualname, params[position]),
                            site.module.display_path,
                        )
                for keyword in site.call.keywords:
                    if keyword.arg is None or keyword.arg not in params:
                        continue
                    if _is_set_expression(keyword.value) or (
                        isinstance(keyword.value, ast.Name)
                        and keyword.value.id in caller_sets
                    ):
                        tainted.setdefault(
                            (qualname, keyword.arg), site.module.display_path
                        )
        for (qualname, param), caller_path in sorted(tainted.items()):
            callee = project.functions[qualname]
            module = project.modules[callee.module]
            for node in _own_nodes(callee.node):
                if (
                    isinstance(node, (ast.For, ast.AsyncFor))
                    and isinstance(node.iter, ast.Name)
                    and node.iter.id == param
                ):
                    yield self.violation(
                        module,
                        node.iter,
                        f"{callee.name}() iterates parameter {param!r}, "
                        f"which receives a set from {caller_path} — hash "
                        "order reaches the kernel",
                    )
