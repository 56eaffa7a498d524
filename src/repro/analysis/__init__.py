"""Analysis tooling: post-run scoring and the ``simlint`` static checker.

Two unrelated-looking halves that answer the same question — *can this
run be trusted?* — at two different times:

* :mod:`repro.analysis.postrun` scores a **finished**
  :class:`~repro.core.simulation.Simulation` against ground truth the
  paper could not observe (TCG discovery precision/recall, cache
  duplication, fairness).  Its public names are re-exported here, so
  ``from repro.analysis import tcg_discovery_quality`` keeps working.
* :mod:`repro.analysis.engine` plus the ``rules_*`` modules are
  **simlint**: an AST-based static-analysis pass, run at review time
  over the source tree (``python -m repro lint``), that enforces the
  hazards no run-time gate sees: numpy generators built only in
  :mod:`repro.sim.random`, no wall clock or hash-ordered iteration in
  simulated code, DES-kernel discipline (no blocking calls, no stale
  ``env.now``, no per-event allocation in the dispatch loop) and the
  :class:`~repro.core.config.SimulationConfig` field contracts.

See ``docs/ANALYSIS.md`` for the rule catalogue, the history behind it
and the pragma workflow.
"""

from repro.analysis.engine import (
    LintRule,
    LintViolation,
    ModuleSource,
    all_rules,
    lint_source,
    rule_registry,
)
from repro.analysis.postrun import (
    DiscoveryQuality,
    cache_duplication,
    cache_overlap_matrix,
    group_distinct_items,
    jain_fairness,
    tcg_discovery_quality,
)

__all__ = [
    "DiscoveryQuality",
    "LintRule",
    "LintViolation",
    "ModuleSource",
    "all_rules",
    "cache_duplication",
    "cache_overlap_matrix",
    "group_distinct_items",
    "jain_fairness",
    "lint_source",
    "rule_registry",
    "tcg_discovery_quality",
]
