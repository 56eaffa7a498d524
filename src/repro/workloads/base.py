"""The workload engine and per-host stream contracts.

A **workload engine** owns the run-wide state of one demand process —
access patterns, hot sets, drift permutations — and hands each mobile
host a lazy **host stream** via :meth:`WorkloadEngine.bind`.  A host
stream answers exactly two questions, one request at a time, in the
order the legacy client loop asked them:

* :meth:`HostStream.next_delay` — how long to think before the next
  request (the legacy path draws ``rng.exponential(think_time_mean)``
  from the host's own stream);
* :meth:`HostStream.next_item` — which item to request (the legacy path
  draws from the shared ``"workload"`` stream).

Streams are lazy by contract: a conforming implementation holds O(1)
state per host regardless of how many requests it serves (the
conformance battery's constant-memory check pins this per registered
key).

The engine also keeps a windowed item histogram — every drawn item is
:meth:`noted <WorkloadEngine.note>` — so the observability sampler can
report per-window request rate and hot-set entropy without touching any
RNG (sampling a run never perturbs it).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    import numpy as np

    from repro.core.config import SimulationConfig
    from repro.sim.random import RandomStreams

try:  # Protocol is typing-only; runtime use is pure duck typing.
    from typing import Protocol
except ImportError:  # pragma: no cover - ancient interpreters only
    Protocol = object  # type: ignore[assignment]

__all__ = ["HostStream", "WorkloadEngine", "demand_stream"]


def demand_stream(streams: "RandomStreams") -> "np.random.Generator":
    """The shared item-draw stream every workload engine consumes.

    This is the legacy ``"workload"`` stream — the one
    :func:`~repro.data.workload.build_access_patterns` historically drew
    from — and this helper is its single owner: every engine derives it
    here, so no two modules can couple to the name independently.
    """
    return streams.stream("workload")


class HostStream(Protocol):
    """What one mobile host pulls its requests from."""

    def next_delay(self, now: float) -> float:
        """Think time before the next request, from simulated ``now``."""

    def next_item(self, now: float) -> int:
        """The next requested item id (call after :meth:`next_delay`)."""


class WorkloadEngine:
    """Base class of every registered workload.

    Subclasses set :attr:`key` (their registry key) and implement
    :meth:`bind`.  An engine's shape parameters are class constants: no
    figure varies them, so no config field carries them.
    """

    key: str = ""

    def __init__(
        self,
        config: "SimulationConfig",
        streams: "RandomStreams",
        group_of: List[int],
    ) -> None:
        self.config = config
        self.streams = streams
        self.group_of = list(group_of)
        self._window_counts: Dict[int, int] = {}
        self._window_requests = 0

    def bind(self, index: int, rng: "np.random.Generator") -> HostStream:
        """The request stream of host ``index``.

        ``rng`` is the host's own ``client-{index}`` stream — the one the
        legacy loop drew think times from — so a workload that keeps its
        delay draws there replays bit-identically.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ window accounting

    def note(self, item: int) -> None:
        """Count one drawn item into the current observation window.

        Pure counting — no RNG, no events — so noted and unnoted runs
        are bit-identical (the sampler-identity property test pins this).
        """
        self._window_requests += 1
        counts = self._window_counts
        counts[item] = counts.get(item, 0) + 1

    def take_window(self) -> Tuple[int, float]:
        """``(requests, hot-set entropy in bits)`` since the last call.

        Resets the window.  Entropy is the Shannon entropy of the item
        histogram: high when demand is spread, collapsing toward 0 during
        a flash-crowd spike — which is what makes non-stationarity a
        reportable time-series column.
        """
        requests = self._window_requests
        entropy = 0.0
        if requests:
            for count in self._window_counts.values():
                p = count / requests
                entropy -= p * math.log2(p)
        self._window_counts = {}
        self._window_requests = 0
        return requests, entropy
