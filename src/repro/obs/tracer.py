"""Span/event tracing over simulated time.

The tracer records three kinds of :class:`TraceEvent`:

* ``B`` — a span opens (``begin``): a named interval keyed by an integer
  span id, optionally parented to an enclosing span,
* ``E`` — a span closes (``end``) with a status string,
* ``I`` — an instant (``instant``): a point event with no duration.

Timestamps are **always** ``env.now`` of the bound
:class:`~repro.sim.kernel.Environment` — callers never pass a time, so a
wall-clock value cannot leak into a trace (and
``tests/test_source_hazards.py`` keeps host-clock reads out of simulated
code).

The tracer is passive: it draws no randomness, schedules no events and
never touches simulation state, so attaching it cannot change a run's
:class:`~repro.core.metrics.Results` (the bit-identity tests pin this).
Hot paths guard every call site with ``if tracer is not None`` — a
traced-off run executes not a single tracer instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.sim.kernel import Environment

__all__ = ["Span", "TraceError", "TraceEvent", "Tracer", "derive_spans"]


class TraceError(RuntimeError):
    """Tracer misuse: unbound environment, unknown or double-closed span."""


class TraceEvent:
    """One recorded occurrence (begin / end / instant)."""

    __slots__ = ("kind", "name", "time", "host", "span", "parent", "status", "args")

    def __init__(
        self,
        kind: str,
        name: str,
        time: float,
        host: Optional[int],
        span: int,
        parent: Optional[int],
        status: Optional[str],
        args: Dict[str, object],
    ) -> None:
        self.kind = kind  # "B" | "E" | "I"
        self.name = name
        self.time = time
        self.host = host
        self.span = span  # -1 for instants
        self.parent = parent
        self.status = status  # set on "E" events only
        self.args = args

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready mapping (one JSONL line of the event log)."""
        payload: Dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "t": self.time,
        }
        if self.host is not None:
            payload["host"] = self.host
        if self.span >= 0:
            payload["span"] = self.span
        if self.parent is not None:
            payload["parent"] = self.parent
        if self.status is not None:
            payload["status"] = self.status
        if self.args:
            payload["args"] = self.args
        return payload

    def __repr__(self) -> str:
        return (
            f"TraceEvent({self.kind} {self.name!r} t={self.time} "
            f"host={self.host} span={self.span})"
        )


@dataclass(frozen=True)
class Span:
    """One completed interval, derived by pairing a B event with its E."""

    span: int
    name: str
    host: Optional[int]
    start: float
    end: float
    parent: Optional[int]
    status: str
    args: Dict[str, object]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects :class:`TraceEvent` records in kernel event order."""

    def __init__(self) -> None:
        self._env: Optional[Environment] = None
        self.events: List[TraceEvent] = []
        self._open: Dict[int, TraceEvent] = {}
        self._next_span = 0
        self.finished = False

    def bind(self, env: Environment) -> None:
        """Attach the simulation clock; must happen before any recording."""
        self._env = env

    def _now(self) -> float:
        if self._env is None:
            raise TraceError("tracer is not bound to an Environment yet")
        return self._env.now

    @property
    def open_spans(self) -> int:
        """How many spans are currently open."""
        return len(self._open)

    def begin(
        self,
        name: str,
        host: Optional[int] = None,
        parent: Optional[int] = None,
        **args: object,
    ) -> int:
        """Open a span; returns its id (pass it to :meth:`end`)."""
        span = self._next_span
        self._next_span += 1
        event = TraceEvent("B", name, self._now(), host, span, parent, None, args)
        self.events.append(event)
        self._open[span] = event
        return span

    def end(self, span: int, status: str = "ok", **args: object) -> None:
        """Close an open span with a status string."""
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
        """Record a point event."""
        self.events.append(
            TraceEvent("I", name, self._now(), host, -1, parent, None, args)
        )

    def finish(self) -> None:
        """Close every span still open (requests in flight at run end).

        Swept spans close with status ``"unfinished"`` and
        ``recorded=False`` so the trace contract's conservation checks
        never count them against the run's :class:`Results`.
        """
        for span in sorted(self._open, reverse=True):
            self.end(span, status="unfinished", recorded=False)
        self.finished = True

    def spans(self) -> List[Span]:
        """The completed spans, in open order."""
        return derive_spans(self.events)


def derive_spans(events: Iterable[TraceEvent]) -> List[Span]:
    """Pair B/E events into :class:`Span` records (open order).

    A span whose E event is missing (a trace written before
    :meth:`Tracer.finish`, or an injected instrumentation bug) surfaces
    with ``end=start`` and status ``"open"`` so downstream checks can
    flag it rather than crash.
    """
    opened: Dict[int, TraceEvent] = {}
    order: List[int] = []
    closed: Dict[int, Span] = {}
    for event in events:
        if event.kind == "B":
            opened[event.span] = event
            order.append(event.span)
        elif event.kind == "E":
            begin = opened.get(event.span)
            if begin is None:
                continue  # dangling E: reported by the contract checker
            merged = dict(begin.args)
            merged.update(event.args)
            closed[event.span] = Span(
                span=event.span,
                name=begin.name,
                host=begin.host,
                start=begin.time,
                end=event.time,
                parent=begin.parent,
                status=event.status or "ok",
                args=merged,
            )
    spans: List[Span] = []
    for span_id in order:
        span = closed.get(span_id)
        if span is None:
            begin = opened[span_id]
            span = Span(
                span=span_id,
                name=begin.name,
                host=begin.host,
                start=begin.time,
                end=begin.time,
                parent=begin.parent,
                status="open",
                args=dict(begin.args),
            )
        spans.append(span)
    return spans
