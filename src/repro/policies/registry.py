"""String-keyed policy plugin registry (ROADMAP item 3).

The simulator's strategy choices — cache admission, cache replacement
and retrieve peer-scoring — are looked up here by ``(namespace, key)``
instead of being hard-coded, the way Icarus hosts its ~20 strategies
behind ``@register_strategy``.  Adding a policy is one decorated
definition::

    from repro.policies.registry import register

    @register("replacement", "lru-min",
              summary="evict the candidate closest to expiry")
    def _build_lru_min(config, cache, signature_scheme, peer_signature):
        return LRUMinReplacement(cache, config.replace_candidate)

Every registered key is automatically picked up by the conformance
battery (:mod:`repro.policies.conformance`), the differential golden
test and ``repro policies list`` — a policy that does not pass the
battery fails CI.

What a registered *value* must be differs per namespace (the factory in
:mod:`repro.policies.factory` documents the builder contracts); the
registry itself only stores and resolves them.  The mechanism is the
shared :class:`repro.registry.Registry`; this module is its policy
instance plus the instance's re-exported bound methods.
"""

from __future__ import annotations

from typing import Tuple

from repro.registry import Registry, RegistryEntry

__all__ = [
    "NAMESPACES",
    "PolicyInfo",
    "available",
    "describe",
    "entries",
    "register",
    "register_value",
    "resolve",
    "temporary_policy",
]

#: The registry's namespaces, one per strategy axis of the simulator.
NAMESPACES: Tuple[str, ...] = (
    "admission",
    "replacement",
    "peer-scoring",
)

PolicyInfo = RegistryEntry


def _load_builtins() -> None:
    """Import the builtin policy modules (registration is import-driven).

    Imported here, not at module top, to avoid cycles: the policy modules
    import this module for the decorator, and ``repro.core.config``
    imports this module for key validation.
    """
    from repro.policies import (  # noqa: F401
        admission,
        replacement,
    )
    from repro.net import health  # noqa: F401


_POLICIES = Registry("policy", NAMESPACES, "{namespace} policy", _load_builtins)
_REGISTRY = _POLICIES.tables

register = _POLICIES.register
register_value = _POLICIES.register_value
available = _POLICIES.available
describe = _POLICIES.describe
resolve = _POLICIES.resolve
entries = _POLICIES.entries
temporary_policy = _POLICIES.temporary
