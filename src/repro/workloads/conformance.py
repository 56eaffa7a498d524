"""The conformance battery every registered workload must pass.

The four shared checks of :mod:`repro.check.conformance` (invariants,
smoke, seed stability, config round trip) plus one of its own:

* **constant memory** — drawing thousands of requests through every
  bound host stream allocates a bounded number of bytes beyond a warm
  prefix (``tracemalloc`` peak delta), pinning the lazy-stream contract
  of :mod:`repro.workloads.base`.

Both ``tests/test_workload_conformance.py`` (auto-parametrised over
:func:`conformance_keys`) and ``tools/conformance_matrix.py`` (the CI
matrix job) drive runs through :func:`run_conformance`, so a workload
added with one ``@register`` line is battery-covered with no further
wiring.
"""

from __future__ import annotations

import tracemalloc
from typing import List

from repro.check.conformance import BASE_CONFIG, ConformanceReport, run_battery
from repro.core.config import SimulationConfig
from repro.sim.random import RandomStreams
from repro.workloads import registry
from repro.workloads.factory import build_workload, resolved_workload_key

__all__ = [
    "CONSTANT_MEMORY_BOUND",
    "conformance_config",
    "conformance_keys",
    "run_conformance",
]

#: Allowed ``tracemalloc`` peak growth (bytes) while drawing the
#: measured segment of the constant-memory check.  Generous against the
#: ~tens of KiB a conforming stream actually allocates, tight against
#: the O(requests) blow-up of an eager implementation.
CONSTANT_MEMORY_BOUND = 512 * 1024

_WARM_DRAWS = 1_500
_MEASURED_DRAWS = 6_000


def conformance_keys() -> List[str]:
    """Every registered workload key the battery must cover."""
    return registry.available()


def conformance_config(key: str) -> SimulationConfig:
    """A small config that genuinely exercises workload ``key``."""
    return SimulationConfig(workload=key, **BASE_CONFIG)


def measure_stream_memory(config: SimulationConfig) -> int:
    """Peak ``tracemalloc`` growth (bytes) over the measured draw segment.

    Builds the configured engine outside any simulation, binds every
    host, then pulls ``(next_delay, next_item)`` pairs round-robin —
    first a warm segment (caches, buffers, lazy tables fill), then a
    measured segment after ``reset_peak``.  A lazy stream's delta stays
    flat no matter how large the measured segment is.
    """
    streams = RandomStreams(config.seed)
    group_of = [index // config.group_size for index in range(config.n_clients)]
    tracemalloc.start()
    try:
        engine = build_workload(config, streams, group_of)
        # Deliberately NOT the simulation's "client-{index}" streams:
        # this harness only needs determinism, and naming its own streams
        # keeps each named stream single-owner.
        hosts = [
            engine.bind(index, streams.stream(f"workload-mem-{index}"))
            for index in range(config.n_clients)
        ]
        clocks = [0.0] * len(hosts)

        def draw(count: int) -> None:
            for step in range(count):
                index = step % len(hosts)
                clocks[index] += hosts[index].next_delay(clocks[index])
                hosts[index].next_item(clocks[index])
                if step % 500 == 499:
                    engine.take_window()

        draw(_WARM_DRAWS)
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        draw(_MEASURED_DRAWS)
        peak = tracemalloc.get_traced_memory()[1]
        return max(0, peak - baseline)
    finally:
        tracemalloc.stop()


def _check_constant_memory(
    config: SimulationConfig, report: ConformanceReport
) -> None:
    delta = measure_stream_memory(config)
    report.measurements["memory_delta"] = delta
    report.check(
        "constant_memory",
        delta < CONSTANT_MEMORY_BOUND,
        f"peak delta {delta} bytes >= {CONSTANT_MEMORY_BOUND}",
    )


def run_conformance(key: str) -> ConformanceReport:
    """Run the full battery for one registered workload."""
    return run_battery(
        registry.NAMESPACE,
        key,
        conformance_config(key),
        resolved_workload_key,
        extra_checks=(_check_constant_memory,),
    )
