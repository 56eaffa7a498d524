"""Unit tests for the DES kernel."""

import math
import random

import pytest

from repro.sim import (
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


class _QuietMonitor:
    """All three kernel hooks, doing nothing."""

    def on_schedule(self, env, when):
        pass

    def on_step(self, env, when):
        pass

    def on_condition_fire(self, condition):
        pass


_plain_and_monitored = pytest.mark.parametrize(
    "monitor", [None, _QuietMonitor()], ids=["plain", "monitored"]
)


def test_timeout_advances_clock():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(3.5)
        log.append(env.now)
        yield env.timeout(1.5)
        log.append(env.now)

    env.process(proc())
    env.run()
    assert log == [3.5, 5.0]


def test_timeout_value_passthrough():
    env = Environment()
    seen = []

    def proc():
        value = yield env.timeout(1, value="hello")
        seen.append(value)

    env.process(proc())
    env.run()
    assert seen == ["hello"]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_nan_delay_rejected_fresh_and_recycled():
    env = Environment()
    with pytest.raises(SimulationError, match="nan"):
        env.timeout(float("nan"))
    # Run one timeout through so the next call takes the free-list branch.
    env.timeout(1)
    env.run()
    assert env.timeout(1) is not None and env.freelist_hits == 1
    with pytest.raises(SimulationError, match="nan"):
        env.timeout(float("nan"))


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=25)
    assert env.now == 25


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_run_until_nan_raises_and_leaves_the_schedule_alone():
    env = Environment()
    env.timeout(3)
    with pytest.raises(SimulationError, match="nan"):
        env.run(until=float("nan"))
    assert env.now == 0 and env.pending_events == 1


def test_run_until_inf_raises_and_leaves_the_clock_and_schedule_alone():
    """``until=inf`` would drain the schedule and leave the clock at +inf,
    where every later ``timeout`` is scheduled at +inf too."""
    env = Environment()
    env.timeout(3)
    env.run(until=1)
    with pytest.raises(SimulationError, match="inf"):
        env.run(until=math.inf)
    assert env.now == 1 and env.pending_events == 1


@pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_initial_time_rejected(start):
    with pytest.raises(SimulationError, match=f"initial_time.*{start}"):
        Environment(initial_time=start)


def test_process_return_value():
    env = Environment()

    def inner():
        yield env.timeout(2)
        return 42

    def outer(results):
        value = yield env.process(inner())
        results.append((env.now, value))

    results = []
    env.process(outer(results))
    env.run()
    assert results == [(2, 42)]


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append((env.now, value))

    def opener():
        yield env.timeout(7)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [(7, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    gate = env.event()
    gate.succeed(1)
    with pytest.raises(SimulationError):
        gate.succeed(2)


def test_succeed_now_resumes_the_waiter_inside_the_callers_step():
    """No queue entry: the waiter resumes before the trigger call returns,
    at the trigger's instant, and the pop count does not move."""
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        value = yield gate
        log.append(("resumed", env.now, value))

    def opener():
        yield env.timeout(3)
        gate.succeed_now("open")
        log.append(("returned", env.now, None))

    env.process(waiter())
    env.process(opener())
    env.run()
    assert log == [("resumed", 3, "open"), ("returned", 3, None)]
    assert gate.processed and gate.value == "open"
    # Two bootstraps and the timeout: the in-place trigger adds no event.
    assert env.events_processed == 3


def test_succeed_now_refuses_a_triggered_event():
    env = Environment()
    scheduled, processed = env.event(), env.event()
    scheduled.succeed(1)
    processed.succeed_now(1)
    for gate in (scheduled, processed):
        with pytest.raises(SimulationError, match="already triggered"):
            gate.succeed_now(2)
    with pytest.raises(SimulationError, match="already triggered"):
        env.timeout(1).succeed_now(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter())
    gate.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_surfaces_from_run():
    env = Environment()

    def crasher():
        yield env.timeout(1)
        raise ValueError("crash")

    env.process(crasher())
    with pytest.raises(ValueError, match="crash"):
        env.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("early")
    log = []

    def late_waiter():
        yield env.timeout(5)
        value = yield gate
        log.append((env.now, value))

    env.process(late_waiter())
    env.run()
    assert log == [(5, "early")]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        yield 42

    proc = env.process(bad())
    with pytest.raises(SimulationError, match=r"^process yielded a non-event: 42$"):
        env.run()
    with pytest.raises(SimulationError, match="non-event"):
        _ = proc.value  # a failed process re-raises its error
    assert env.now == 1.0


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc():
        slow = env.timeout(10, value="slow")
        fast = env.timeout(3, value="fast")
        fired = yield AnyOf(env, [slow, fast])
        log.append((env.now, fired[fast]))
        assert slow not in fired

    env.process(proc())
    env.run()
    assert log == [(3, "fast")]


def test_any_of_with_pre_fired_event():
    env = Environment()
    done = env.event()
    done.succeed("pre")
    log = []

    def proc():
        yield env.timeout(1)
        fired = yield env.any_of([done, env.timeout(100)])
        log.append((env.now, fired[done]))

    env.process(proc())
    env.run(until=50)
    assert log == [(1, "pre")]


def test_empty_any_of_fires_immediately():
    env = Environment()
    log = []

    def proc():
        fired = yield env.any_of([])
        log.append(fired)

    env.process(proc())
    env.run()
    assert log == [{}]


def test_interrupt_wakes_process_with_cause():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt as interrupt:
            log.append((env.now, interrupt.cause))

    def interrupter(target):
        yield env.timeout(4)
        target.interrupt("wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [(4, "wake up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    proc = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def maker(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in range(6):
        env.process(maker(tag))
    env.run()
    assert order == list(range(6))


def test_peek_and_step():
    env = Environment()
    env.process(iter_timeouts(env))
    assert env.peek() == 0  # process bootstrap event
    env.step()
    assert env.peek() == 2.0
    env.step()
    assert env.now == 2.0


def iter_timeouts(env):
    yield env.timeout(2.0)
    yield env.timeout(3.0)


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_nested_processes_compose():
    env = Environment()

    def leaf(n):
        yield env.timeout(n)
        return n * 2

    def mid():
        a = yield env.process(leaf(1))
        b = yield env.process(leaf(2))
        return a + b

    def root(out):
        out.append((yield env.process(mid())))

    out = []
    env.process(root(out))
    env.run()
    assert out == [6]
    assert env.now == 3


# -- timeout_at: absolute-time scheduling ------------------------------------


def test_timeout_at_fires_at_the_exact_instant_fresh_and_recycled():
    env = Environment(initial_time=0.3)
    assert 0.3 + (0.9 - 0.3) != 0.9  # why timeout(when - now) would not do
    fresh = env.timeout_at(0.9, value="fresh")
    assert env.freelist_hits == 0 and fresh.delay == 0.9 - 0.3
    env.run()
    assert env.now == 0.9 and fresh.value == "fresh"
    # Run an unowned timeout through so the next call takes the free list.
    env.timeout(0)
    env.run()
    recycled = env.timeout_at(0.9 + 0.3, value="recycled")
    assert env.freelist_hits == 1 and recycled is not fresh
    env.run()
    assert env.now == 0.9 + 0.3 and recycled.value == "recycled"


def test_timeout_at_rejects_nan_and_the_past_fresh_and_recycled():
    env = Environment(initial_time=5.0)
    for _ in range(2):
        with pytest.raises(SimulationError, match=r"when=nan.*now \(5\.0\)"):
            env.timeout_at(float("nan"))
        with pytest.raises(SimulationError, match=r"when=4\.5.*now \(5\.0\)"):
            env.timeout_at(4.5)
        assert env.pending_events == 0
        # Second pass: a timeout waits on the free list.
        env.timeout(0)
        env.run()
    assert env.now == 5.0


def test_timeout_at_now_fires_without_advancing_the_clock():
    env = Environment(initial_time=2.0)
    timeout = env.timeout_at(2.0, value="now")
    assert timeout.delay == 0.0
    env.run()
    assert timeout.processed and timeout.value == "now" and env.now == 2.0


def test_timeout_at_and_timeout_interleave_in_seq_order():
    env = Environment(initial_time=1.0)
    order = []

    def waiter(tag, absolute):
        yield env.timeout_at(env.now + 4.0) if absolute else env.timeout(4.0)
        order.append(tag)

    for tag in range(8):
        env.process(waiter(tag, absolute=tag % 2 == 0))
    env.run()
    assert order == list(range(8))
    assert env.now == 5.0


def test_timeout_at_reports_to_the_monitor():
    class Recorder:
        def __init__(self):
            self.scheduled = []

        def on_schedule(self, env, when):
            self.scheduled.append(when)

        def on_step(self, env, when):
            pass

    monitor = Recorder()
    env = Environment(monitor=monitor)
    env.timeout_at(3.25)
    assert monitor.scheduled == [3.25]
    env.run(until=3.25)
    assert env.events_processed == 1


def test_monitored_run_without_until_stops_when_the_schedule_drains():
    def one_timeout(env):
        yield env.timeout(2.5)

    outcomes = []
    for monitor in (None, _QuietMonitor()):
        env = Environment(monitor=monitor)
        env.process(one_timeout(env))
        env.run()  # until=None: the checked loop used to step() an empty queue
        outcomes.append((env.now, env.events_processed))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2.5


# -- the Timeout free list: only timeouts nobody else holds are reused --------


@_plain_and_monitored
def test_a_fired_timeout_somebody_still_holds_is_never_handed_out_again(monitor):
    env = Environment(monitor=monitor)

    def ticker():  # unowned timeouts, so the free list is in use throughout
        for _ in range(8):
            yield env.timeout(0.5)

    env.process(ticker())
    local = env.timeout(1.0, value="local")
    listed = [env.timeout(1.0, value="list")]
    race = env.any_of([env.timeout(1.0, value="any_of"), env.timeout(9.0)])
    env.run(until=5.0)
    assert race.processed and env.freelist_hits > 0
    held = {"local": local, "list": listed[0], "any_of": race.events[0]}
    later = [env.timeout(1.0, value="later") for _ in range(50)]
    for holder, timeout in held.items():
        assert all(other is not timeout for other in later), holder
        assert timeout.processed and timeout.value == holder


@_plain_and_monitored
def test_an_unowned_yielded_timeout_is_recycled(monitor):
    env = Environment(monitor=monitor)

    def ticker():
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(ticker())
    env.run()
    # A timeout returns to the free list after its callbacks ran, i.e. after
    # the ticker asked for the next one: two instances alternate, and every
    # call after the first two is served from the list.
    assert env.now == 10.0 and env.freelist_hits == 8


# -- processes nobody waits on complete in place -----------------------------


def test_unwatched_process_completes_without_a_queue_entry():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(worker())
    env.run(until=0.5)
    assert env.events_processed == 1 and env.pending_events == 1  # bootstrap; timeout
    env.run()
    # Bootstrap and timeout only: the end of the generator cost no event.
    assert env.events_processed == 2 and env.pending_events == 0
    assert proc.processed and not proc.is_alive and proc.value == "done"
    assert env.now == 1.0


def test_waiter_registered_before_the_end_is_woken_through_the_queue():
    env = Environment()
    got = []

    def worker():
        yield env.timeout(1.0)
        return "done"

    def waiter(proc):
        got.append((yield proc))

    proc = env.process(worker())
    env.process(waiter(proc))
    env.run()
    # worker: bootstrap, timeout, completion; waiter: bootstrap (it ends
    # unwatched).  The completion event is what resumes the waiter.
    assert got == ["done"] and env.events_processed == 4


def test_yield_on_a_process_that_already_ended_resumes_at_once():
    env = Environment()
    got = []

    def worker():
        yield env.timeout(1.0)
        return "done"

    def late_waiter(proc):
        yield env.timeout(2.0)
        before = env.events_processed
        got.append((yield proc))
        got.append(env.events_processed - before)

    proc = env.process(worker())
    env.process(late_waiter(proc))
    env.run()
    assert got == ["done", 0] and env.now == 2.0
    # A condition over it fires too.
    any_of = env.any_of([proc])
    env.run()
    assert any_of.value == {proc: "done"}


def test_unwatched_failed_process_still_raises_from_run():
    env = Environment()

    def worker():
        yield env.timeout(1.0)
        raise KeyError("boom")

    proc = env.process(worker())
    with pytest.raises(KeyError, match="boom"):
        env.run()
    assert proc.processed
    with pytest.raises(KeyError, match="boom"):
        _ = proc.value  # a failed process re-raises its error
    assert env.events_processed == 3  # bootstrap, timeout, the failure event


# -- infinite instants are rejected at the call ------------------------------


def test_infinite_timeout_rejected_and_the_clock_stays_finite():
    env = Environment()
    with pytest.raises(SimulationError, match="timeout delay must be finite.*inf"):
        env.timeout(float("inf"))
    assert env.pending_events == 0
    env.run()
    assert env.now == 0.0


def test_timeout_at_rejects_infinity_and_leaves_the_clock_finite():
    env = Environment(initial_time=1.0)
    with pytest.raises(SimulationError, match=r"when=inf.*finite"):
        env.timeout_at(float("inf"))
    env.run()
    assert env.now == 1.0 and env.pending_events == 0


@pytest.mark.parametrize("delay", [float("inf"), float("nan"), -0.5])
def test_call_later_rejects_a_non_finite_or_negative_delay(delay):
    env = Environment()
    with pytest.raises(SimulationError, match="call_later delay must be finite"):
        env.call_later(delay, lambda: None)
    assert env.pending_events == 0


# -- bare calls share one (when, seq) order with events ----------------------


def _interleaving(env, rng, log, n_ops=120):
    """Schedule a seeded mix of calls, timeouts, absolute timeouts and
    succeeded events on ``env``; return the expected pop order as
    ``(when, tag)`` sorted by ``(when, seq)``."""
    expected = []
    seq = 0
    for tag in range(n_ops):
        kind = rng.choice(["call", "timeout", "timeout_at", "succeed"])
        # Few distinct instants, so many entries tie on `when`.
        delay = rng.choice([0.0, 0.0, 0.5, 1.0, 1.0, 2.25, rng.random() * 3])
        when = env.now + delay
        if kind == "call":
            env.call_later(delay, lambda tag=tag: log.append((env.now, tag)))
        elif kind == "timeout":
            env.timeout(delay).callbacks.append(
                lambda _event, tag=tag: log.append((env.now, tag))
            )
        elif kind == "timeout_at":
            env.timeout_at(when).callbacks.append(
                lambda _event, tag=tag: log.append((env.now, tag))
            )
        else:
            when = env.now
            event = env.event()
            event.callbacks.append(lambda _event, tag=tag: log.append((env.now, tag)))
            event.succeed()
        seq += 1
        expected.append((when, seq, tag))
    return [(when, tag) for when, _seq, tag in sorted(expected)]


@pytest.mark.parametrize("seed", range(5))
def test_calls_and_events_pop_in_one_when_seq_order(seed):
    rng = random.Random(seed)
    env = Environment()
    log = []
    expected = _interleaving(env, rng, log)
    env.run()
    assert log == expected
    assert env.events_processed == len(expected)


@pytest.mark.parametrize("seed", range(3))
def test_step_and_run_dispatch_the_same_script_identically(seed):
    logs, counts = [], []
    for drive in ("run", "step"):
        env = Environment(initial_time=0.5)
        log = []
        expected = _interleaving(env, random.Random(seed), log)
        if drive == "run":
            env.run()
        else:
            while env.pending_events:
                env.step()
        assert log == expected
        logs.append(log)
        counts.append((env.events_processed, env.now))
    assert logs[0] == logs[1] and counts[0] == counts[1]


def test_a_call_scheduled_from_a_call_runs_behind_what_is_queued_for_now():
    env = Environment()
    order = []

    def first():
        order.append("a")
        env.call_later(0.0, lambda: order.append("c"))

    env.call_later(0.0, first)
    env.timeout(0.0).callbacks.append(lambda _event: order.append("b"))
    env.run()
    assert order == ["a", "b", "c"] and env.events_processed == 3


def test_a_monitor_sees_every_push_and_pop_calls_included():
    class Counter:
        def __init__(self):
            self.scheduled = []
            self.stepped = []

        def on_schedule(self, env, when):
            self.scheduled.append(when)

        def on_step(self, env, when):
            self.stepped.append(when)

        def on_condition_fire(self, condition):
            pass

    for drive in ("run", "step"):
        monitor = Counter()
        env = Environment(monitor=monitor)
        env.call_later(1.0, lambda: env.call_later(0.5, lambda: None))
        env.timeout(2.0)
        env.call_later(0.0, lambda: None)
        assert monitor.scheduled == [1.0, 2.0, 0.0]
        if drive == "run":
            env.run()
        else:
            while env.pending_events:
                env.step()
        assert monitor.scheduled == [1.0, 2.0, 0.0, 1.5]
        assert monitor.stepped == [0.0, 1.0, 1.5, 2.0]
        assert env.events_processed == 4


def test_a_raising_call_leaves_run_counted_with_the_rest_queued():
    env = Environment()
    ran = []

    def boom():
        raise RuntimeError("boom")

    env.call_later(1.0, lambda: ran.append("before"))
    env.call_later(2.0, boom)
    env.call_later(2.0, lambda: ran.append("same instant"))
    env.timeout(3.0)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert ran == ["before"]
    assert env.now == 2.0 and env.events_processed == 2 and env.pending_events == 2
    env.run()
    assert ran == ["before", "same instant"] and env.events_processed == 4
    assert env.now == 3.0


def test_calls_leave_the_timeout_free_list_alone():
    env = Environment()
    for delay in (0.0, 1.0, 2.0):
        env.call_later(delay, lambda: None)
    env.run()
    assert env.freelist_hits == 0 and env._timeout_free == []
