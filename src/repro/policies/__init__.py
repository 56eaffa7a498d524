"""String-keyed policy plugin registry and its factories (ROADMAP item 3).

Public surface:

* :mod:`repro.policies.registry` — ``register`` / ``resolve`` /
  ``available`` / ``describe`` / ``entries`` over the three namespaces
  (``admission``, ``replacement``, ``peer-scoring``);
* :mod:`repro.policies.factory` — the per-scheme default keys, their
  resolution from a :class:`~repro.core.config.SimulationConfig` and the
  per-namespace builders used by the simulation wiring;
* :mod:`repro.policies.conformance` — the battery every registered key
  must pass (imported explicitly; it pulls in the simulation layer).

This package ``__init__`` must stay import-light: ``repro.core.config``
imports it for key validation, so nothing here may import the core
simulation modules.
"""

from repro.policies.factory import (
    SCHEME_DEFAULTS,
    build_admission,
    build_replacement,
    resolved_policy_keys,
)
from repro.policies.registry import (
    NAMESPACES,
    PolicyInfo,
    available,
    describe,
    entries,
    register,
    register_value,
    resolve,
    temporary_policy,
)

__all__ = [
    "NAMESPACES",
    "PolicyInfo",
    "SCHEME_DEFAULTS",
    "available",
    "build_admission",
    "build_replacement",
    "describe",
    "entries",
    "register",
    "register_value",
    "resolve",
    "resolved_policy_keys",
    "temporary_policy",
]
