"""Policy-registry rules: strategies come from the registry, not ``new``.

PR 8 moved every strategy choice (admission, replacement,
peer-scoring) behind the string-keyed registry in
:mod:`repro.policies.registry`.  A call site that constructs a policy
class directly bypasses the registry — it dodges the conformance battery,
ignores the config's ``*_policy`` overrides, and silently diverges from
what ``repro policies list`` advertises.  The rule flags every direct
constructor call outside the policy modules themselves (which define the
classes and their builders).  Tests and tools are not linted, so unit
tests may construct policies directly.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import LintRule, LintViolation, ModuleSource, register

__all__ = ["PolicyDirectInstantiationRule"]

#: Policy classes that must be reached through the registry factories.
_POLICY_CLASS_NAMES = frozenset(
    {
        # registered admission policies
        "AlwaysAdmit",
        "GroCoCaAdmission",
        "ProbCacheAdmission",
        "LeaveCopyDownAdmission",
        # registered replacement policies
        "LRUReplacement",
        "GroCoCaReplacement",
        "LRUMinReplacement",
        "GreedyDualReplacement",
        "PopularityRankReplacement",
    }
)


@register
class PolicyDirectInstantiationRule(LintRule):
    """Policy classes are constructed by their registered builders only."""

    id = "policy-direct-instantiation"
    description = (
        "a directly constructed policy bypasses the registry: config "
        "*_policy overrides are ignored and the conformance battery "
        "never sees the call site"
    )
    hint = (
        "resolve through repro.policies.factory (build_admission / "
        "build_replacement) or registry.resolve(namespace, key)"
    )
    allow_modules = (
        "repro.policies.admission",
        "repro.policies.replacement",
    )

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            if name in _POLICY_CLASS_NAMES:
                yield self.violation(
                    module,
                    node,
                    f"direct construction of policy class {name!r}",
                )
