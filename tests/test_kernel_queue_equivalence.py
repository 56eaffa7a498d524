"""Every way of driving the kernel dispatches the same events in the same order.

The scheduler is one heap drained by one loop, so what is left to pin is
that the loop's observable behaviour does not depend on how it is driven:

* one randomly generated whole-environment scenario — timeout bursts,
  process interrupts, defused failures — is replayed three ways:
  ``run(until)`` without a monitor, ``run(until)`` with a do-nothing
  monitor (same loop, both hooks firing), and an explicit
  ``peek()``/``step()`` loop (``step`` holds the one other copy of the
  dispatch body); all three must produce the same dispatch trace, clock
  and event count;
* an exception out of ``run()`` consumes exactly the event that raised:
  same-instant events behind it stay scheduled and fire, in seq order,
  on the next ``run()``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment, Interrupt

# Few distinct delays -> frequent same-tick collisions.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.75, 64.0, 1000.0])


class _NullMonitor:
    """The kernel hooks a scenario without conditions reaches, doing nothing."""

    def on_schedule(self, env, when):
        pass

    def on_step(self, env, when):
        pass


@given(
    st.lists(
        st.tuples(
            _DELAYS,  # spawn delay of this process
            st.integers(min_value=1, max_value=3),  # same-tick timeout burst
            st.booleans(),  # victim of an interrupt?
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(_DELAYS, max_size=4),  # interrupt instants
)
@settings(max_examples=60, deadline=None)
def test_run_monitored_run_and_step_loop_agree_on_any_scenario(specs, hits):
    """Same scenario, one full dispatch trace per way of driving it."""

    def replay(monitor, drive):
        env = Environment(monitor=monitor)
        trace = []
        victims = []

        def worker(tag, start, burst):
            try:
                yield env.timeout(start)
                for round_no in range(5):
                    burst_events = [
                        env.timeout(1.0, value=(tag, round_no, i))
                        for i in range(burst)
                    ]
                    for event in burst_events:
                        value = yield event
                        trace.append(("fired", env.now, value))
            except Interrupt as interrupt:
                trace.append(("interrupted", env.now, tag, interrupt.cause))

        def failing(tag):
            # A triggered-then-defused failure goes through the dispatch
            # body's error test without killing the run.
            event = env.event()
            event.fail(RuntimeError(f"boom-{tag}"))
            event.defuse()
            yield env.timeout(0.0)
            trace.append(("survived", env.now, tag))

        def sniper():
            for shot, at in enumerate(sorted(hits)):
                yield env.timeout(max(0.0, at - env.now))
                for victim in victims:
                    if victim.is_alive:
                        victim.interrupt(cause=shot)
                        trace.append(("shot", env.now, shot))
                        break

        for tag, (start, burst, interruptible) in enumerate(specs):
            process = env.process(worker(tag, start, burst))
            if interruptible:
                victims.append(process)
            env.process(failing(tag))
        if hits:
            env.process(sniper())
        drive(env)
        return trace, env.now, env.events_processed

    def run(env):
        env.run(until=50.0)

    def step_loop(env):
        while env.peek() <= 50.0:
            env.step()
        dispatched = env.events_processed
        env.run(until=50.0)  # nothing left to fire: only moves the clock
        assert env.events_processed == dispatched

    plain = replay(None, run)
    assert replay(_NullMonitor(), run) == plain
    assert replay(None, step_loop) == plain


@pytest.mark.parametrize("monitor", [None, _NullMonitor()], ids=["plain", "monitored"])
def test_a_raising_event_leaves_its_same_instant_successors_scheduled(monitor):
    env = Environment(monitor=monitor)
    fired = []
    events = [env.event() for _ in range(4)]
    for tag in (0, 2, 3):  # nobody waits on events[1]
        events[tag].add_callback(lambda _event, tag=tag: fired.append((tag, env.now)))

    def trigger():
        yield env.timeout(2.0)
        events[0].succeed()
        events[1].fail(RuntimeError("boom"))
        events[2].succeed()
        events[3].succeed()

    env.process(trigger())
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert fired == [(0, 2.0)]
    # bootstrap, timeout, events[0] and the raiser, which is consumed.
    assert env.events_processed == 4 and env.pending_events == 2
    assert events[1].processed and not events[2].processed
    env.run()
    assert fired == [(0, 2.0), (2, 2.0), (3, 2.0)]
    assert env.events_processed == 6 and env.pending_events == 0
    assert env.now == 2.0
