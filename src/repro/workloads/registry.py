"""String-keyed workload registry (ROADMAP item 4).

The demand side of a simulation — which item each mobile host requests
next, and when — is looked up here by key instead of being hard-wired to
one stationary Zipf process, the way Icarus hosts its workload iterators
behind ``@register_workload``.  Adding a workload is one decorated
definition::

    from repro.workloads.registry import register

    @register("flash-crowd", summary="transient hot-set spikes")
    def _build_flash_crowd(config, streams, group_of):
        return FlashCrowdWorkload(config, streams, group_of)

Every registered key is automatically picked up by the conformance
battery (:mod:`repro.workloads.conformance`), the differential test and
``repro workloads list`` — a workload that does not pass the battery
fails CI.

A registered value is a builder ``(config, streams, group_of) ->
WorkloadEngine`` (see :mod:`repro.workloads.base` for the engine and
per-host stream contracts).  The mechanism is the shared
:class:`repro.registry.Registry`; this module is its one-namespace
workload instance with that namespace bound into every re-exported
method.
"""

from __future__ import annotations

from functools import partial

from repro.registry import Registry, RegistryEntry

__all__ = [
    "NAMESPACE",
    "WorkloadInfo",
    "available",
    "describe",
    "entries",
    "register",
    "register_value",
    "resolve",
    "temporary_workload",
]

WorkloadInfo = RegistryEntry

#: The registry's single namespace (the ``namespace`` of every report row).
NAMESPACE = "workload"


def _load_builtins() -> None:
    """Import the builtin workload modules (registration is import-driven).

    Imported here, not at module top, to avoid cycles: the workload
    modules import this module for the decorator, and
    ``repro.core.config`` imports this module for key validation.
    """
    from repro.workloads import stationary, synthetic  # noqa: F401


_WORKLOADS = Registry("workload", (NAMESPACE,), "workload", _load_builtins)

register = partial(_WORKLOADS.register, NAMESPACE)
register_value = partial(_WORKLOADS.register_value, NAMESPACE)
available = partial(_WORKLOADS.available, NAMESPACE)
describe = partial(_WORKLOADS.describe, NAMESPACE)
resolve = partial(_WORKLOADS.resolve, NAMESPACE)
entries = partial(_WORKLOADS.entries, NAMESPACE)
temporary_workload = partial(_WORKLOADS.temporary, NAMESPACE)
