"""Process-oriented discrete-event simulation kernel.

A small, fast, dependency-free kernel in the style of CSIM/simpy:

* :class:`Environment` owns the clock and the scheduler queue.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Process` wraps a generator; ``yield event`` suspends the process
  until the event fires and resumes it with the event's value.
* :class:`Timeout` fires after a fixed delay.
* :class:`AnyOf` races events (the COCA reply-or-timeout race).

The kernel is deterministic: simultaneous events fire in schedule order.
Formally, events fire in ascending ``(when, seq)`` order, where ``seq`` is
the global schedule counter.  :meth:`Event.succeed_now` instead runs an
event's callbacks inside the caller's step, with no queue entry.

The scheduler is one ``heapq`` list of ``(when, seq, event)`` tuples owned
by :class:`Environment`, and :meth:`Environment.run` is one loop: pop the
earliest entry, set the clock, run the event's callbacks — or, for a step
nothing waits on (:meth:`Environment.call_later`), just call it: a *bare
call* has no Event, no callbacks list and no free-list trip.  Every cleverer
shape tried here measured no faster end to end on the workloads the
simulator runs — a bucket queue (O(1) operations paid in Python bytecode
against ``heapq``'s O(log n) in C), a one-slot register in front of the
heap, batched same-tick dispatch, a separate loop for monitored runs — see
docs/PERFORMANCE.md, "The DES kernel".

The one hot-path mechanism that pays is kept: the loop recycles
:class:`Timeout` objects through a free list once it is provably their
only owner (the timeouts processes wait on; frame steps are bare calls).
``tests/test_source_hazards.py`` guards the loop against per-event
allocations creeping back in.
"""

from __future__ import annotations

import math
import sys
from heapq import heappop, heappush
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

__all__ = [
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for kernel misuse (double trigger, yielding non-events, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process receives the interrupt at its current yield
    point and may catch it to handle premature wake-up (e.g. a client being
    forced offline mid-wait).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1  # scheduled on the queue, callbacks not yet run
_PROCESSED = 2  # callbacks have run

_INF = math.inf

#: One scheduled occurrence: ``(when, seq, event)`` or ``(when, seq, call)``.
#: Events are never callable, so ``callable()`` tells them apart.
_Call = Callable[[], object]
_Entry = Tuple[float, int, Union["Event", _Call]]


class Event:
    """A one-shot occurrence that can carry a value or an exception.

    Processes wait on events by yielding them.  An event is *triggered* by
    :meth:`succeed` or :meth:`fail`; its callbacks run when the kernel pops
    it off the queue at the trigger time.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = _PENDING
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._state = _TRIGGERED
        self.env._schedule_at(self, self.env.now)
        return self

    def succeed_now(self, value: Any = None) -> "Event":
        """Trigger with ``value`` and process in place: the callbacks (a
        waiting process's resume) run inside the caller's step, unqueued."""
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        self._value = value
        self._process()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into every waiting process.  If no process
        waits, it surfaces from :meth:`Environment.run`.
        """
        if self._state != _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._exception = exception
        self._state = _TRIGGERED
        self.env._schedule_at(self, self.env.now)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run inline at the current time.
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._state = _PROCESSED
        had_waiter = False
        for callback in callbacks or ():
            had_waiter = True
            callback(self)
        if self._exception is not None and not had_waiter and not self._defused:
            raise self._exception


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Built only by :meth:`Environment.timeout` / :meth:`Environment.timeout_at`:
    timeouts are the kernel's dominant allocation, so they are recycled
    through a free list; a recycled instance is indistinguishable from a
    fresh one.
    """

    __slots__ = ("delay",)


class Process(Event):
    """A running generator.  As an Event, it fires when the generator ends.

    The value of the process-event is the generator's return value; an
    uncaught exception inside the generator fails the process-event.  A
    generator that returns while nothing waits on the process completes in
    place, without a queue entry; a waiter or a failure takes the queue.
    """

    __slots__ = ("generator", "_waiting_on", "_resume_cb")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        super().__init__(env)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError("Process requires a generator")
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # One bound method for the process's whole lifetime: creating a
        # fresh bound method per yield is measurable at millions of events.
        self._resume_cb: Callable[[Event], None] = self._resume
        # Kick-start at the current time.
        bootstrap = Event(env)
        bootstrap._state = _TRIGGERED
        bootstrap.add_callback(self._resume_cb)
        env._schedule_at(bootstrap, env.now)

    @property
    def is_alive(self) -> bool:
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._waiting_on is None:
            raise SimulationError("cannot interrupt an unstarted process")
        waited = self._waiting_on
        if waited.callbacks is not None and self._resume_cb in waited.callbacks:
            waited.callbacks.remove(self._resume_cb)
        self._waiting_on = None
        wakeup = Event(self.env)
        wakeup._exception = Interrupt(cause)
        wakeup._state = _TRIGGERED
        wakeup._defused = True
        wakeup.add_callback(self._resume_cb)
        self.env._schedule_at(wakeup, self.env.now)

    def _resume(self, fired: Event) -> None:
        self._waiting_on = None
        generator = self.generator
        while True:
            try:
                if fired._exception is not None:
                    fired._defused = True
                    target = generator.throw(fired._exception)
                else:
                    target = generator.send(fired._value)
            except StopIteration as stop:
                if self._state == _PENDING:
                    if self.callbacks:
                        self.succeed(stop.value)
                    else:
                        # Nobody waits: finish in place; an event without a
                        # callback would be a queue trip for no simulated work.
                        self._value = stop.value
                        self._state = _PROCESSED
                        self.callbacks = None
                return
            except BaseException as exc:  # must fail the process, whatever died
                if self._state == _PENDING:
                    self.fail(exc)
                    return
                raise
            if type(target) is Timeout or isinstance(target, Event):
                if target._state != _PROCESSED:
                    self._waiting_on = target
                    callbacks = target.callbacks
                    if callbacks is not None:
                        callbacks.append(self._resume_cb)
                    return
                # Already fired: resume immediately without a queue trip.
                fired = target
                continue
            generator.close()
            if self._state == _PENDING:
                self.fail(SimulationError(f"process yielded a non-event: {target!r}"))
            return


class AnyOf(Event):
    """Fires when any of the given events fires.

    Value: ``{event: value}`` for the events fired so far.
    """

    __slots__ = ("events", "_fired_count")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._fired_count = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event._state == _PROCESSED:
                self._on_fire(event)
            else:
                event.add_callback(self._on_fire)

    def _on_fire(self, event: Event) -> None:
        if self._state != _PENDING:
            if event._exception is not None:
                event._defused = True
            return
        if event._exception is not None:
            event._defused = True
            self.fail(event._exception)
            return
        self._fired_count += 1
        if self.env.monitor is not None:
            self.env.monitor.on_condition_fire(self)
        self.succeed(
            {
                member: member._value
                for member in self.events
                if member._state == _PROCESSED
            }
        )


# The Timeout free list needs no explicit cap: it only grows when a popped
# timeout has no other owner, so its length is bounded by the high-water
# count of concurrently pending timeouts — memory the run already paid for.
# Free-list invariants (established where :meth:`Environment.run` recycles):
# every entry has ``callbacks == []`` (a reused list object),
# ``_exception is None`` (Timeouts cannot fail once triggered), and
# ``_defused is False`` (defused ones are not recycled), so
# :meth:`Environment._timeout` only rewrites value, state, and delay.


class Environment:
    """The simulation clock and scheduler.

    Pending entries sit in one ``heapq`` list of ``(when, seq, item)``, an
    ``item`` being an :class:`Event` or a bare call; ``seq`` is the global
    schedule counter, so the heap order *is* the kernel's ``(when, seq)``
    dispatch order and no entry ever compares its item.  Two methods push,
    :meth:`_schedule_at` (events) and :meth:`call_later` (calls), and
    :meth:`run` and :meth:`step` pop: a call is called, an event runs its
    callbacks.

    ``monitor`` optionally attaches a
    :class:`~repro.check.monitor.InvariantMonitor`: every push and pop,
    calls included, is then reported through ``on_schedule`` / ``on_step``
    (event-time monotonicity, queue bookkeeping).  Monitored and unmonitored
    runs go through the same loop; without a monitor it pays one ``is None``
    test per push and per pop and behaves bit-identically.
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "events_processed",
        "monitor",
        "_timeout_free",
        "freelist_hits",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        monitor: Any = None,
    ) -> None:
        #: The clock.  A plain slot (a property would be a Python call on
        #: every read); only this class assigns it.
        self.now = float(initial_time)
        if not math.isfinite(self.now):
            raise SimulationError(f"initial_time must be finite, got {initial_time}")
        self._heap: List[_Entry] = []
        self._seq = 0
        #: Queue pops (events and calls) since creation; read by the profiler.
        self.events_processed = 0
        #: Optional invariant oracle (duck-typed; see repro.check.monitor).
        self.monitor = monitor
        #: Recycled Timeout instances (see :meth:`_timeout`).
        self._timeout_free: List[Timeout] = []
        #: Timeouts served from the free list; read by the profiler.
        self.freelist_hits = 0

    @property
    def pending_events(self) -> int:
        """Queued events and calls (queue size); read by samplers."""
        return len(self._heap)

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if not (0 <= delay < _INF):  # NaN fails every comparison
            raise SimulationError(f"timeout delay must be finite and >= 0, got {delay}")
        return self._timeout(self.now + delay, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A timeout that fires at the absolute time ``when``.

        Exactly ``when``, which ``timeout(when - now)`` cannot promise:
        ``now + (when - now) != when`` in floats.
        """
        now = self.now
        if not (now <= when < _INF):  # NaN fails every comparison
            raise SimulationError(
                f"timeout_at(when={when}) must be finite and >= now ({now})"
            )
        return self._timeout(when, when - now, value)

    def _timeout(self, when: float, delay: float, value: Any) -> Timeout:
        """A triggered Timeout at ``when``: recycled if possible, else new."""
        free = self._timeout_free
        if free:
            timeout = free.pop()
            self.freelist_hits += 1
        else:
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
        timeout._value = value
        timeout._state = _TRIGGERED
        timeout.delay = delay
        self._schedule_at(timeout, when)
        return timeout

    def call_later(self, delay: float, call: _Call) -> None:
        """Call ``call()`` in a step of its own ``delay`` from now, in the
        ``(when, seq)`` place a timeout scheduled here would take.  Nothing
        can wait on, cancel or read a bare call."""
        if not (0 <= delay < _INF):  # NaN fails every comparison
            raise SimulationError(f"call_later delay must be finite and >= 0, got {delay}")
        # `_schedule_at` inlined: this is the push of every frame step.
        when = self.now + delay
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (when, seq, call))
        if self.monitor is not None:
            self.monitor.on_schedule(self, when)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule_at(self, event: Event, when: float) -> None:
        seq = self._seq + 1
        self._seq = seq
        heappush(self._heap, (when, seq, event))
        if self.monitor is not None:
            self.monitor.on_schedule(self, when)

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf when idle."""
        return self._heap[0][0] if self._heap else _INF

    def step(self) -> None:
        """Process the next event or call.  Raises SimulationError when idle."""
        if not self._heap:
            raise SimulationError("step() on an empty schedule")
        when, _seq, item = heappop(self._heap)
        if self.monitor is not None:
            self.monitor.on_step(self, when)
        self.now = when
        self.events_processed += 1
        if callable(item):
            item()
        else:
            item._process()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or the clock reaches ``until``.

        An exception out of a callback or a bare call (or an undefused
        failure nobody waits on) propagates after its entry is popped and
        counted in ``events_processed``; every entry it never reached stays
        scheduled, in order.
        """
        if until is not None:
            if not (self.now <= until < _INF):  # NaN fails every comparison
                raise SimulationError(
                    f"run(until={until}) must be finite and >= now ({self.now})"
                )
            limit = until
        else:
            limit = _INF
        heap = self._heap
        monitor = self.monitor
        free = self._timeout_free
        getrefcount = sys.getrefcount
        # ``step()`` with Event._process inlined and the lookups hoisted.
        while heap and heap[0][0] <= limit:
            when, _seq, event = heappop(heap)
            if monitor is not None:
                monitor.on_step(self, when)
            self.now = when
            self.events_processed += 1
            if callable(event):
                event()
                continue
            callbacks = event.callbacks
            event.callbacks = None
            event._state = _PROCESSED
            if callbacks:
                for callback in callbacks:
                    callback(event)
            elif event._exception is not None and not event._defused:
                raise event._exception
            if (
                type(event) is Timeout
                # Sole owner: the `event` local plus getrefcount's own
                # argument.  A waiter that kept the timeout (a variable, a
                # list, a condition's `events`) adds a third reference.
                and getrefcount(event) == 2
                and not event._defused
            ):
                # Re-establish the free-list invariants, reusing the
                # emptied callbacks list (zero allocations).
                if callbacks:
                    del callbacks[:]
                event.callbacks = callbacks
                free.append(event)
        if until is not None and until > self.now:
            self.now = until
