"""The list-of-objects tracer, kept as a test reference.

``repro.obs.tracer.Tracer`` keeps its events in columns: ``array``
columns for time, host, span and parent, one small-int shape code per
(kind, name, status, arg keys), and every arg value in one flat list.
This is the design it replaced: one :class:`TraceEvent` per event, each
with its own ``args`` dict, appended to a plain list.  It takes the same
declared-recorder calls (``declare`` once, then ``open`` / ``close`` /
``point`` with values in the declared key order).  Nothing in ``src/``
uses it: ``tests/test_trace_store.py`` runs the same simulations under both
tracers and requires equal events, contract verdicts and exports,
``tests/test_state_sizing.py`` compares what the two retain, and
``benchmarks/test_micro_trace.py`` times the two per event.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Span, TraceError, TraceEvent, derive_spans
from repro.sim.kernel import Environment


class ReferenceTracer:
    """Collects :class:`TraceEvent` records in kernel event order."""

    def __init__(self) -> None:
        self._env: Optional[Environment] = None
        self.events: List[TraceEvent] = []
        self._shapes: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = []
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

    def declare(
        self,
        kind: str,
        name: str,
        keys: Sequence[str] = (),
        status: Optional[str] = None,
    ) -> int:
        self._shapes.append((kind, name, status, tuple(keys)))
        return len(self._shapes) - 1

    def _args(self, code: int, kind: str, values: tuple) -> Dict[str, object]:
        shape_kind, _name, _status, keys = self._shapes[code]
        if shape_kind != kind or len(values) != len(keys):
            raise TraceError(f"shape {self._shapes[code]} given {kind} {values}")
        return dict(zip(keys, values))

    def open(
        self, code: int, host: Optional[int], parent: Optional[int], *values: object
    ) -> int:
        args = self._args(code, "B", values)
        span = self._next_span
        self._next_span += 1
        event = TraceEvent(
            "B", self._shapes[code][1], self._now(), host, span, parent, None, args
        )
        self.events.append(event)
        self._open[span] = event
        return span

    def close(self, span: int, code: int, *values: object) -> None:
        args = self._args(code, "E", values)
        opened = self._open.pop(span, None)
        if opened is None:
            raise TraceError(f"close() of unknown or already-closed span {span}")
        _kind, name, status, _keys = self._shapes[code]
        if name != opened.name:
            raise TraceError(f"span {span} ({opened.name!r}) closed as {name!r}")
        self.events.append(
            TraceEvent(
                "E", name, self._now(), opened.host, span, opened.parent, status, args
            )
        )

    def point(
        self, code: int, host: Optional[int], parent: Optional[int], *values: object
    ) -> None:
        args = self._args(code, "I", values)
        self.events.append(
            TraceEvent("I", self._shapes[code][1], self._now(), host, -1, parent, None, args)
        )

    def finish(self) -> None:
        for span in sorted(self._open, reverse=True):
            name = self._open[span].name
            self.close(span, self.declare("E", name, ("recorded",), "unfinished"), False)
        self.finished = True

    def spans(self) -> List[Span]:
        return derive_spans(self.events)
