"""Span/event tracing over simulated time.

The tracer records three kinds of :class:`TraceEvent`:

* ``B`` — a span opens (``open``): a named interval keyed by an integer
  span id, optionally parented to an enclosing span,
* ``E`` — a span closes (``close``) with a status string,
* ``I`` — an instant (``point``): a point event with no duration.

Each call site declares the shape of what it records once
(:meth:`Tracer.declare`) and then passes only values.

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

    A call site declares each event shape it records once, when its host
    or layer is built: :meth:`declare` takes the kind, name, arg keys and,
    for an end, the status, and returns a small-int shape code.  The
    recorders then take that code and the arg values positionally, in the
    declared key order: :meth:`open` opens a span, :meth:`close` closes
    one and :meth:`point` records an instant.

    The events live in columns, not in one object and one dict per event:
    ``array`` columns hold time, host, span and parent (:data:`_NONE`
    stands for a ``None`` host or parent and for an instant's span of -1),
    a shape column holds each event's code, and every arg value goes into
    one flat list that an offset column indexes.  :attr:`events` is a
    read-only sequence view that builds each :class:`TraceEvent` on
    access, its ``args`` in the declared key order.

    Recording an event makes no object that outlives the call and looks
    nothing up by name: the code is the shape.  The integer columns are
    unsigned because CPython appends to an unsigned ``array`` without
    parsing a format string, at about half the cost of a signed one; host
    and span ids are never negative.  A recorder does not count the
    values it is given; the view checks each event's count against its
    shape's keys when the event is read.
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
        # code -> (kind, name, status, arg keys), and back.
        self._shapes: List[Tuple[str, str, Optional[str], Tuple[str, ...]]] = []
        self._codes: Dict[Tuple[str, str, Optional[str], Tuple[str, ...]], int] = {}
        # end code -> the span name it closes.
        self._closes: Dict[int, str] = {}
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

    def declare(
        self,
        kind: str,
        name: str,
        keys: Sequence[str] = (),
        status: Optional[str] = None,
    ) -> int:
        """The code of one event shape, for :meth:`open`, :meth:`close` or
        :meth:`point`.

        ``kind`` is ``"B"`` (a span opens), ``"E"`` (it closes, with
        ``status``) or ``"I"`` (an instant); ``keys`` name the values the
        recorder will be given, in order.  Declaring a shape again returns
        its code, so every host of a run shares one table.
        """
        if kind not in ("B", "E", "I") or (kind == "E") != (status is not None):
            raise TraceError(
                f"an event shape is a B or I without a status or an E with one, "
                f"got kind {kind!r} and status {status!r}"
            )
        shape = (kind, name, status, tuple(keys))
        code = self._codes.get(shape)
        if code is None:
            code = self._codes[shape] = len(self._shapes)
            self._shapes.append(shape)
            if kind == "E":
                self._closes[code] = name
        return code

    def _refuse(self, code: object, host: object, parent: object) -> TraceError:
        """Undo a half-appended row; the error that rejects it."""
        rows = len(self._time)
        del self._shape[rows:]
        del self._host[rows:]
        del self._parent[rows:]
        return TraceError(
            f"code, host and parent must be ints >= 0 (host and parent may be "
            f"None), got {code!r}, {host!r} and {parent!r}"
        )

    # The three recorders below append to the columns inline: on CPython
    # 3.11 a ``self._column.append(x)`` call is specialised and beats a
    # bound method kept on the instance, and a shared helper would add a
    # Python frame to every event.  The shape code, host and parent, the
    # only caller values a column can refuse, are appended before the
    # time, so a refused event leaves every column as it was.

    def open(
        self, code: int, host: Optional[int], parent: Optional[int], *values: object
    ) -> int:
        """Open a span of begin shape ``code``; returns its id (pass it to
        :meth:`close`)."""
        now = self._env.now
        try:
            self._shape.append(code)
            self._host.append(_NONE if host is None else host)
            self._parent.append(_NONE if parent is None else parent)
        except (OverflowError, TypeError):
            raise self._refuse(code, host, parent) from None
        span = self._next_span
        self._next_span = span + 1
        time = self._time
        self._open[span] = len(time)
        time.append(now)
        self._span.append(span)
        stored = self._values
        self._offset.append(len(stored))
        stored += values
        return span

    def close(self, span: int, code: int, *values: object) -> None:
        """Close an open span with end shape ``code``, declared for the
        span's name."""
        now = self._env.now
        row = self._open.pop(span, None)
        if row is None:
            raise TraceError(f"close() of unknown or already-closed span {span}")
        name = self._shapes[self._shape[row]][1]
        if self._closes.get(code) != name:
            self._open[span] = row
            raise TraceError(f"span {span} ({name!r}) cannot close with code {code!r}")
        self._time.append(now)
        host = self._host
        host.append(host[row])
        self._span.append(span)
        parent = self._parent
        parent.append(parent[row])
        self._shape.append(code)
        stored = self._values
        self._offset.append(len(stored))
        stored += values

    def point(
        self, code: int, host: Optional[int], parent: Optional[int], *values: object
    ) -> None:
        """Record an instant of shape ``code``."""
        now = self._env.now
        try:
            self._shape.append(code)
            self._host.append(_NONE if host is None else host)
            self._parent.append(_NONE if parent is None else parent)
        except (OverflowError, TypeError):
            raise self._refuse(code, host, parent) from None
        self._time.append(now)
        self._span.append(_NONE)
        stored = self._values
        self._offset.append(len(stored))
        stored += values

    def finish(self) -> None:
        """Close every span still open (requests in flight at run end).

        Swept spans close with status ``"unfinished"`` and
        ``recorded=False`` so the trace contract's conservation checks
        never count them against the run's :class:`Results`.
        """
        shapes = self._shapes
        for span in sorted(self._open, reverse=True):
            name = shapes[self._shape[self._open[span]]][1]
            self.close(span, self.declare("E", name, ("recorded",), "unfinished"), False)
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
        code = tracer._shape[row]
        if code >= len(tracer._shapes):
            raise TraceError(f"event {row} has undeclared shape code {code}")
        kind, name, status, keys = tracer._shapes[code]
        offset = tracer._offset[row]
        stop = (
            tracer._offset[row + 1] if row + 1 < len(tracer._offset) else len(tracer._values)
        )
        if stop - offset != len(keys):
            raise TraceError(
                f"event {row} ({kind} {name!r}) was recorded with {stop - offset} "
                f"values for the {len(keys)} keys {keys} of its shape"
            )
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
            dict(zip(keys, tracer._values[offset:stop])),
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
