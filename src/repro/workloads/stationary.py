"""The legacy stationary Zipf workload, behind the registry.

``stationary-zipf`` is the paper's Section V-B demand process and the
resolution target of ``workload=""``: group-shared access windows with
Zipf-ranked popularity, exponential think times.  It is **structurally
bit-identical** to the pre-registry path — the same
:func:`~repro.data.workload.build_access_patterns` call against the same
shared ``"workload"`` stream, the same per-host think-time draws against
the host's own ``client-{index}`` stream, in the same kernel order — so
all four golden fixtures replay without a re-record (pinned by
``tests/test_workload_differential.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.data.workload import AccessPattern, build_access_patterns
from repro.workloads.base import WorkloadEngine, demand_stream
from repro.workloads.registry import register

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.config import SimulationConfig
    from repro.sim.random import RandomStreams

__all__ = ["StationaryZipfWorkload", "ZipfHostStream"]


class ZipfHostStream:
    """One host's view of a stationary Zipf engine."""

    __slots__ = ("engine", "pattern", "rng", "mean")

    def __init__(
        self,
        engine: WorkloadEngine,
        pattern: AccessPattern,
        rng: "np.random.Generator",
        mean: float,
    ) -> None:
        self.engine = engine
        self.pattern = pattern
        self.rng = rng
        self.mean = float(mean)

    def next_delay(self, now: float) -> float:
        return self.rng.exponential(self.mean)

    def next_item(self, now: float) -> int:
        item = self.pattern.next_item()
        self.engine.note(item)
        return item


@register(
    "stationary-zipf",
    summary="the paper's stationary group-Zipf process (the legacy default)",
    citation="Chow, Leong & Chan, ICDCS 2004, Section V-B",
)
class StationaryZipfWorkload(WorkloadEngine):
    """Group-shared Zipf windows, exponential think times."""

    key = "stationary-zipf"

    def __init__(
        self,
        config: "SimulationConfig",
        streams: "RandomStreams",
        group_of: List[int],
    ) -> None:
        super().__init__(config, streams, group_of)
        self.patterns = build_access_patterns(
            demand_stream(streams),
            self.group_of,
            config.n_data,
            config.access_range,
            config.theta,
        )

    def bind(self, index: int, rng: "np.random.Generator") -> ZipfHostStream:
        return ZipfHostStream(
            self, self.patterns[index], rng, self.config.think_time_mean
        )
