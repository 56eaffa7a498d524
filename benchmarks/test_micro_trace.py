"""Micro-benchmark of the tracer's per-event cost.

One seed-1 ``gc-observed`` run (the perfbench workload) is recorded as a
call log: every ``declare``, ``open``, ``close`` and ``point`` the hosts
and layers make, each with the simulated time it read, and the closing
``finish``.  The log is then replayed against a stub clock through
:class:`~repro.obs.tracer.Tracer` (the column store) and through
``tests/_trace_reference.py`` (one ``TraceEvent`` and one dict per event),
with the same declared-recorder calls.  Both replays must record the
events the run recorded, field by field.

Timed: each replay ``REPEATS`` times, alternately, best pass reported, as
ns per event.  The replay loop itself (set the clock, call a recorder)
is timed against recorders that do nothing and reported beside them.
Retained: the tracemalloc bytes a replayed tracer holds, per event.
The timings are reported, not gated (docs/PERFORMANCE.md, "The trace
store").
"""

import gc
import math
import time
import tracemalloc

from conftest import run_once

from perfbench.workloads import config_overrides
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation
from repro.obs import Observer, Tracer
from tests._trace_reference import ReferenceTracer

REPEATS = 5


class CallLog(Tracer):
    """A tracer that also logs every call made to it, in order."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def declare(self, kind, name, keys=(), status=None):
        code = super().declare(kind, name, keys, status)
        self.calls.append(("declare", code, (kind, name, tuple(keys), status)))
        return code

    def open(self, code, host, parent, *values):
        self.calls.append(("open", self._env.now, (code, host, parent, *values)))
        return super().open(code, host, parent, *values)

    def close(self, span, code, *values):
        self.calls.append(("close", self._env.now, (span, code, *values)))
        super().close(span, code, *values)

    def point(self, code, host, parent, *values):
        self.calls.append(("point", self._env.now, (code, host, parent, *values)))
        super().point(code, host, parent, *values)

    def finish(self):
        self.calls.append(("finish", self._env.now, ()))
        calls, self.calls = self.calls, []  # finish's own calls are not logged
        super().finish()
        self.calls = calls


def record_call_log():
    """The seed-1 ``gc-observed`` run's tracer calls, and its events."""
    overrides = config_overrides("gc-observed", 1)
    config = SimulationConfig.from_dict({**SimulationConfig().as_dict(), **overrides})
    log = CallLog()
    observer = Observer(tracer=log)
    simulation = Simulation(config, observer=observer)
    simulation.run()
    observer.finalize(simulation)
    return log.calls, list(log.events)


class Clock:
    """The ``now`` a replayed tracer reads."""

    now = 0.0


class Idle:
    """Recorders that do nothing: what the replay loop costs alone."""

    def __init__(self):
        self.spans = 0

    def bind(self, env):
        pass

    def declare(self, kind, name, keys=(), status=None):
        return 0

    def open(self, code, host, parent, *values):
        self.spans += 1
        return self.spans - 1

    def close(self, span, code, *values):
        pass

    def point(self, code, host, parent, *values):
        pass

    def finish(self):
        pass


def compile_replay(calls, tracer):
    """Declare the log's shapes on ``tracer``; the event calls, with each
    logged code replaced by ``tracer``'s code for the same shape."""
    codes, steps = {}, []
    for method, stamp, args in calls:
        if method == "declare":
            codes[stamp] = tracer.declare(*args)
        elif method == "close":
            span, code, *values = args
            steps.append((method, stamp, (span, codes[code], *values)))
        elif method == "finish":
            steps.append((method, stamp, ()))
        else:
            code, *rest = args
            steps.append((method, stamp, (codes[code], *rest)))
    return steps


def replay(make, calls):
    """Seconds to replay the log's events into a fresh ``make()``; the tracer."""
    tracer = make()
    clock = Clock()
    tracer.bind(clock)
    steps = compile_replay(calls, tracer)
    recorders = {name: getattr(tracer, name) for name in ("open", "close", "point", "finish")}
    steps = [(recorders[method], stamp, args) for method, stamp, args in steps]
    gc.collect()
    start = time.perf_counter()
    for record, stamp, args in steps:
        clock.now = stamp
        record(*args)
    return time.perf_counter() - start, tracer


def retained_bytes(make, calls):
    """The tracemalloc bytes a tracer holds after replaying the log."""
    tracemalloc.start()
    try:
        _seconds, tracer = replay(make, calls)
        tracer.bind(None)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del tracer
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def fields(event):
    return (
        event.kind,
        event.name,
        event.time,
        event.host,
        event.span,
        event.parent,
        event.status,
        list(event.args.items()),  # a list keeps the key order
    )


def measure():
    calls, recorded = record_call_log()
    expected = [fields(event) for event in recorded]
    sides = {"store": Tracer, "reference": ReferenceTracer, "idle": Idle}
    for name in ("store", "reference"):
        _seconds, tracer = replay(sides[name], calls)
        assert [fields(event) for event in tracer.events] == expected, name
    best = {name: math.inf for name in sides}
    for _ in range(REPEATS):
        for name, make in sides.items():
            best[name] = min(best[name], replay(make, calls)[0])
    held = {name: retained_bytes(sides[name], calls) for name in ("store", "reference")}
    return len(recorded), best, held


def test_micro_trace(benchmark, record_table):
    events, best, held = run_once(benchmark, measure)
    loop = best["idle"] / events * 1e9
    lines = [
        "=== Micro: the tracer, per recorded event ===",
        f"  a seed-1 gc-observed run's call log, replayed: {events:,} events",
        f"  each side: best of {REPEATS} alternating passes",
        "  tracer         ns/event  less the loop  retained bytes/event",
    ]
    for name in ("store", "reference"):
        per_event = best[name] / events * 1e9
        lines.append(
            f"  {name:12s}  {per_event:9.0f}  {per_event - loop:13.0f}"
            f"  {held[name] / events:20.1f}"
        )
    lines.append(f"  replay loop   {loop:9.0f}")
    record_table("micro_trace", "\n".join(lines))
