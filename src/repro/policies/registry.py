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
registry itself only stores and resolves them.  Builtins load lazily on
the first lookup, so importing this module stays cheap and cycle-free
(``repro.core.config`` imports it for key validation, and the builtin
modules import it for the decorator).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Tuple

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


@dataclass(frozen=True)
class PolicyInfo:
    """One registered policy: its key, value and catalogue metadata."""

    namespace: str
    key: str
    value: Any
    summary: str = ""
    citation: str = ""


_REGISTRY: Dict[str, Dict[str, PolicyInfo]] = {
    namespace: {} for namespace in NAMESPACES
}
_builtins_loaded = False


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


def _table(namespace: str) -> Dict[str, PolicyInfo]:
    table = _REGISTRY.get(namespace)
    if table is None:
        raise KeyError(
            f"unknown policy namespace {namespace!r}; "
            f"available: {', '.join(NAMESPACES)}"
        )
    return table


def _loaded(namespace: str) -> Dict[str, PolicyInfo]:
    """The table of ``namespace``, builtins imported first."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        _load_builtins()
    return _table(namespace)


def register_value(
    namespace: str,
    key: str,
    value: Any,
    *,
    summary: str = "",
    citation: str = "",
) -> Any:
    """Register ``value`` under ``(namespace, key)``; returns ``value``.

    Raises ``ValueError`` on a duplicate key — entries are registered
    exactly once, so resolution can never depend on registration order.
    """
    table = _table(namespace)
    if not isinstance(key, str) or not key:
        raise ValueError(f"policy key must be a non-empty string, got {key!r}")
    if key in table:
        raise ValueError(f"duplicate {namespace} policy {key!r}")
    table[key] = PolicyInfo(namespace, key, value, summary, citation)
    return value


def register(
    namespace: str, key: str, *, summary: str = "", citation: str = ""
) -> Callable[[Any], Any]:
    """Decorator form of :func:`register_value`."""
    _table(namespace)  # fail fast, before the decorated definition
    return partial(register_value, namespace, key, summary=summary, citation=citation)


def available(namespace: str) -> List[str]:
    """The registered keys of ``namespace``, sorted."""
    return sorted(_loaded(namespace))


def describe(namespace: str, key: str) -> PolicyInfo:
    """The :class:`PolicyInfo` behind ``(namespace, key)``.

    The ``KeyError`` for an unknown key lists every valid key verbatim,
    so a typo'd config or CLI flag is self-explaining.
    """
    table = _loaded(namespace)
    info = table.get(key)
    if info is None:
        raise KeyError(
            f"unknown {namespace} policy {key!r}; "
            f"available: {', '.join(sorted(table))}"
        )
    return info


def resolve(namespace: str, key: str) -> Any:
    """The registered value behind ``(namespace, key)``."""
    return describe(namespace, key).value


def entries(namespace: str) -> List[PolicyInfo]:
    """Every :class:`PolicyInfo` of ``namespace``, sorted by key."""
    return [info for _, info in sorted(_loaded(namespace).items())]


@contextmanager
def temporary_policy(
    namespace: str,
    key: str,
    value: Any,
    *,
    summary: str = "",
    citation: str = "",
) -> Iterator[PolicyInfo]:
    """Register a policy for the duration of a ``with`` block (tests).

    The entry is removed on exit even when the block raises, so property
    tests can register throwaway policies without polluting the process
    registry.
    """
    register_value(namespace, key, value, summary=summary, citation=citation)
    table = _REGISTRY[namespace]
    try:
        yield table[key]
    finally:
        table.pop(key, None)
