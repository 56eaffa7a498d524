"""The conformance battery every registered policy must pass.

The four shared checks of :mod:`repro.check.conformance` (invariants,
smoke, seed stability, config round trip), run once per
``(namespace, key)`` pair under a config that genuinely exercises it.

Both ``tests/test_policy_conformance.py`` (auto-parametrised over
:func:`conformance_keys`) and ``tools/conformance_matrix.py`` (the CI
matrix job) drive runs through :func:`run_conformance`, so a policy
added with one ``@register`` line is battery-covered with no further
wiring.

Lives outside ``repro.policies.__init__`` on purpose: it imports the
simulation layer, which imports the config, which imports the package
``__init__`` — keeping this module out of that chain avoids the cycle.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.check.conformance import BASE_CONFIG, ConformanceReport, run_battery
from repro.core.config import CachingScheme, SimulationConfig
from repro.policies import registry
from repro.policies.factory import resolved_policy_keys

__all__ = [
    "conformance_config",
    "conformance_keys",
    "run_conformance",
]


def conformance_keys() -> List[Tuple[str, str]]:
    """Every ``(namespace, key)`` pair the battery must cover."""
    return [
        (namespace, key)
        for namespace in registry.NAMESPACES
        for key in registry.available(namespace)
    ]


def conformance_config(namespace: str, key: str) -> SimulationConfig:
    """A small config that genuinely exercises ``(namespace, key)``.

    GroCoCa hosts the two cache-management namespaces (the ``grococa``
    keys need its TCGs and signatures); COCA hosts ``peer-scoring``.
    """
    if namespace == "admission":
        return SimulationConfig(
            scheme=CachingScheme.GC, admission_policy=key, **BASE_CONFIG
        )
    if namespace == "replacement":
        return SimulationConfig(
            scheme=CachingScheme.GC, replacement_policy=key, **BASE_CONFIG
        )
    if namespace == "peer-scoring":
        # A non-default peer policy flips health_enabled on by itself;
        # for "arrival" the breaker does it so the tracker is really built.
        overrides = {"peer_policy": key}
        if key == "arrival":
            overrides["breaker_threshold"] = 3
        return SimulationConfig(scheme=CachingScheme.CC, **BASE_CONFIG, **overrides)
    raise KeyError(
        f"unknown policy namespace {namespace!r}; "
        f"available: {', '.join(registry.NAMESPACES)}"
    )


def run_conformance(namespace: str, key: str) -> ConformanceReport:
    """Run the full battery for one registered policy."""
    return run_battery(
        namespace, key, conformance_config(namespace, key), resolved_policy_keys
    )
