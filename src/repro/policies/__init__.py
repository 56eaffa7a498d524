"""The policy tables and their factory.

Public surface:

* :mod:`repro.policies.registry` — the three literal tables
  (``admission``, ``replacement``, ``peer-scoring``) and ``available`` /
  ``describe`` / ``resolve`` over them;
* :mod:`repro.policies.factory` — the per-scheme default keys, their
  resolution from a :class:`~repro.core.config.SimulationConfig` and the
  per-namespace builders used by the simulation wiring.

The conformance battery every key must pass lives with its CI runner in
``tools/conformance_matrix.py``.

This package must not import the core simulation modules:
``repro.core.config`` imports it for key validation.
"""

from repro.policies.factory import (
    SCHEME_DEFAULTS,
    build_admission,
    build_replacement,
    resolved_policy_keys,
)
from repro.policies.registry import (
    NAMESPACES,
    POLICIES,
    PolicyInfo,
    available,
    describe,
    resolve,
)

__all__ = [
    "NAMESPACES",
    "POLICIES",
    "PolicyInfo",
    "SCHEME_DEFAULTS",
    "available",
    "build_admission",
    "build_replacement",
    "describe",
    "resolve",
    "resolved_policy_keys",
]
