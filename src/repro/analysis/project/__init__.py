"""Whole-program analysis: project index and call graph.

The per-file rules in :mod:`repro.analysis` see one AST at a time; this
subpackage gives rules the *project* view — every module parsed and
cross-linked (:mod:`~repro.analysis.project.index`) and a conservative
call graph over it (:mod:`~repro.analysis.project.callgraph`).  The
whole-program rules built on top live in
``repro.analysis.rules_project_*`` and run under ``repro lint --project``.
"""

from repro.analysis.project.callgraph import CallGraph, CallSite, build_call_graph
from repro.analysis.project.index import ClassInfo, FunctionInfo, ProjectIndex

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectIndex",
    "build_call_graph",
]
