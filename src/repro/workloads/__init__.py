"""Streaming workload engines behind a string-keyed registry.

The request stream a simulation replays is a first-class, swappable
axis — same machinery as ``repro.policies``: registered engines are
discovered lazily, resolved by key, and validated by a shared
conformance battery.  ``config.workload = ""`` keeps the legacy
stationary group-Zipf process, bit-identically.
"""

from repro.workloads.base import HostStream, WorkloadEngine
from repro.workloads.factory import (
    DEFAULT_WORKLOAD,
    build_workload,
    resolved_workload_key,
)
from repro.workloads.registry import (
    WorkloadInfo,
    available,
    describe,
    entries,
    register,
    register_value,
    resolve,
    temporary_workload,
)

__all__ = [
    "DEFAULT_WORKLOAD",
    "HostStream",
    "WorkloadEngine",
    "WorkloadInfo",
    "available",
    "build_workload",
    "describe",
    "entries",
    "register",
    "register_value",
    "resolve",
    "resolved_workload_key",
    "temporary_workload",
]
