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

from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union, overload

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


#: The column value standing for "none" (a ``None`` host or parent, an
#: instant's span): the all-ones ``uint64``.
_NONE = (1 << 64) - 1


class _Unbound:
    """The clock of a tracer that has not been bound yet."""

    __slots__ = ()

    @property
    def now(self) -> float:
        raise TraceError("tracer is not bound to an Environment yet")


class Tracer:
    """Records begin / end / instant events in kernel event order.

    The events live in columns, not in one object and one dict each:
    ``array`` columns hold time, host, span and parent (:data:`_NONE`
    stands for a ``None`` host or parent and for an instant's span of -1),
    a shape column holds one small-int code per distinct ``(kind, name,
    status, arg keys)``, and every arg value goes into one flat list that
    an offset column indexes.  :attr:`events` is a read-only sequence view
    that builds each :class:`TraceEvent` on access, its ``args`` in the
    caller's key order.

    Recording an event makes no object that outlives the call: the shape
    lookup key is a transient tuple, and the columns store raw numbers.
    The integer columns are unsigned because CPython appends to an
    unsigned ``array`` without parsing a format string, at about half the
    cost of a signed one; host and span ids are never negative.
    """

    def __init__(self) -> None:
        self._env: Union[Environment, _Unbound] = _Unbound()
        self._time = array("d")
        self._host = array("Q")
        self._span = array("Q")
        self._parent = array("Q")
        self._shape = array("I")
        self._offset = array("Q")
        self._values: List[object] = []
        # code -> (kind, name, status, arg keys).  The recorders find a code
        # by a cheaper key: ("B" or "I", name, *arg keys) for a begin or an
        # instant, (code of the span's begin, status, *arg keys) for an end.
        # Two keys may share a shape; the view decodes by code alone.
        self._shapes: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = []
        self._codes: Dict[tuple, int] = {}
        self._open: Dict[int, int] = {}  # span id -> row of its B event
        self._next_span = 0
        self._view = _EventView(self)
        self.finished = False

    @property
    def events(self) -> "_EventView":
        """The recorded events, as a read-only sequence of :class:`TraceEvent`."""
        return self._view

    def bind(self, env: Environment) -> None:
        """Attach the simulation clock; must happen before any recording."""
        self._env = env

    @property
    def open_spans(self) -> int:
        """How many spans are currently open."""
        return len(self._open)

    def _bad_ids(self, host: object, parent: object) -> TraceError:
        """Undo a half-appended row of ids; the error that rejects them."""
        del self._host[len(self._parent) :]
        return TraceError(
            f"host and parent must be None or ints >= 0, got {host!r} and {parent!r}"
        )

    # The three recorders below append to the columns inline: on CPython
    # 3.11 a ``self._column.append(x)`` call is specialised and beats a
    # bound method kept on the instance, and a shared helper would add a
    # Python frame to every event.  Host and parent, the only caller
    # values a column can refuse, are appended first, so a refused event
    # leaves every column as it was.

    def begin(
        self,
        name: str,
        host: Optional[int] = None,
        parent: Optional[int] = None,
        **args: object,
    ) -> int:
        """Open a span; returns its id (pass it to :meth:`end`)."""
        now = self._env.now
        try:
            self._host.append(_NONE if host is None else host)
            self._parent.append(_NONE if parent is None else parent)
        except (OverflowError, TypeError):
            raise self._bad_ids(host, parent) from None
        span = self._next_span
        self._next_span = span + 1
        key = ("B", name, *args)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._shapes)
            self._shapes.append(("B", name, None, tuple(args)))
        time = self._time
        self._open[span] = len(time)
        time.append(now)
        self._span.append(span)
        self._shape.append(code)
        values = self._values
        self._offset.append(len(values))
        if args:
            values.extend(args.values())
        return span

    def end(self, span: int, status: str = "ok", **args: object) -> None:
        """Close an open span with a status string."""
        row = self._open.pop(span, None)
        if row is None:
            raise TraceError(f"end() of unknown or already-closed span {span}")
        now = self._env.now
        opened = self._shape[row]
        key = (opened, status, *args)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._shapes)
            self._shapes.append(("E", self._shapes[opened][1], status, tuple(args)))
        self._time.append(now)
        host = self._host
        host.append(host[row])
        self._span.append(span)
        parent = self._parent
        parent.append(parent[row])
        self._shape.append(code)
        values = self._values
        self._offset.append(len(values))
        if args:
            values.extend(args.values())

    def instant(
        self,
        name: str,
        host: Optional[int] = None,
        parent: Optional[int] = None,
        **args: object,
    ) -> None:
        """Record a point event."""
        now = self._env.now
        try:
            self._host.append(_NONE if host is None else host)
            self._parent.append(_NONE if parent is None else parent)
        except (OverflowError, TypeError):
            raise self._bad_ids(host, parent) from None
        key = ("I", name, *args)
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._shapes)
            self._shapes.append(("I", name, None, tuple(args)))
        self._time.append(now)
        self._span.append(_NONE)
        self._shape.append(code)
        values = self._values
        self._offset.append(len(values))
        if args:
            values.extend(args.values())

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


class _EventView(Sequence[TraceEvent]):
    """A read-only sequence over a :class:`Tracer`'s columns.

    Each access builds a fresh :class:`TraceEvent` (with a fresh ``args``
    dict), so nothing a reader does can change what was recorded.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._time)

    @overload
    def __getitem__(self, index: int) -> TraceEvent:
        ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceEvent]:
        ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TraceEvent, List[TraceEvent]]:
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return [self._event(row) for row in rows]
        return self._event(rows)

    def _event(self, row: int) -> TraceEvent:
        tracer = self._tracer
        kind, name, status, keys = tracer._shapes[tracer._shape[row]]
        offset = tracer._offset[row]
        host = tracer._host[row]
        span = tracer._span[row]
        parent = tracer._parent[row]
        return TraceEvent(
            kind,
            name,
            tracer._time[row],
            None if host == _NONE else host,
            -1 if span == _NONE else span,
            None if parent == _NONE else parent,
            status,
            dict(zip(keys, tracer._values[offset : offset + len(keys)])),
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._event, range(len(self)))


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
