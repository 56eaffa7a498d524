"""The list-of-objects tracer, kept as a test reference.

``repro.obs.tracer.Tracer`` keeps its events in columns: ``array``
columns for time, host, span and parent, one small-int shape code per
(kind, name, status, arg keys), and every arg value in one flat list.
This is the design it replaced: one :class:`TraceEvent` per event, each
with its own ``args`` dict, appended to a plain list.  Nothing in ``src/``
uses it: ``tests/test_trace_store.py`` runs the same simulations under both
tracers and requires equal events, contract verdicts and exports, and
``tests/test_state_sizing.py`` compares what the two retain.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.tracer import Span, TraceError, TraceEvent, derive_spans
from repro.sim.kernel import Environment


class ReferenceTracer:
    """Collects :class:`TraceEvent` records in kernel event order."""

    def __init__(self) -> None:
        self._env: Optional[Environment] = None
        self.events: List[TraceEvent] = []
        self._open: Dict[int, TraceEvent] = {}
        self._next_span = 0
        self.finished = False

    def bind(self, env: Environment) -> None:
        self._env = env

    def _now(self) -> float:
        if self._env is None:
            raise TraceError("tracer is not bound to an Environment yet")
        return self._env.now

    @property
    def open_spans(self) -> int:
        return len(self._open)

    def begin(
        self,
        name: str,
        host: Optional[int] = None,
        parent: Optional[int] = None,
        **args: object,
    ) -> int:
        span = self._next_span
        self._next_span += 1
        event = TraceEvent("B", name, self._now(), host, span, parent, None, args)
        self.events.append(event)
        self._open[span] = event
        return span

    def end(self, span: int, status: str = "ok", **args: object) -> None:
        opened = self._open.pop(span, None)
        if opened is None:
            raise TraceError(f"end() of unknown or already-closed span {span}")
        self.events.append(
            TraceEvent(
                "E", opened.name, self._now(), opened.host, span,
                opened.parent, status, args,
            )
        )

    def instant(
        self,
        name: str,
        host: Optional[int] = None,
        parent: Optional[int] = None,
        **args: object,
    ) -> None:
        self.events.append(
            TraceEvent("I", name, self._now(), host, -1, parent, None, args)
        )

    def finish(self) -> None:
        for span in sorted(self._open, reverse=True):
            self.end(span, status="unfinished", recorded=False)
        self.finished = True

    def spans(self) -> List[Span]:
        return derive_spans(self.events)
