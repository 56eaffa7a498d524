"""The scheduler queue and both dispatch paths agree with their references.

Two property tests pin the kernel's ordering contract:

* :class:`~repro.sim.kernel.HeapQueue` is driven in lock-step with a
  sorted-list model through arbitrary operation sequences (pushes with
  same-tick bursts, single pops, batched pops with limits, requeues) and
  must show identical observable behaviour at every step — in particular
  ``pop_batch(limit)`` returns one whole tick in seq order, and
  ``requeue`` puts a batch tail back at the *front* of its tick;
* one randomly generated whole-environment scenario — timeout bursts,
  process interrupts, defused failures — runs once through the batched
  ``run(until)`` dispatcher and once through the ``peek()``/``step()``
  loop the monitored path uses, and both must produce the same dispatch
  trace, clock and event count.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment, HeapQueue, Interrupt

# Few distinct delays -> frequent same-tick collisions.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 7.75, 64.0, 1000.0])

_OPS = st.one_of(
    st.tuples(st.just("push"), _DELAYS, st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("pop_one")),
    st.tuples(st.just("pop_batch"), _DELAYS),
    st.tuples(st.just("requeue"), st.integers(min_value=0, max_value=3)),
)


class SortedListModel:
    """The queue contract, stated as a list kept in ``(when, seq)`` order."""

    def __init__(self):
        self.entries = []
        self.front_seq = 0  # requeued entries sort before every live seq

    def __len__(self):
        return len(self.entries)

    def push(self, when, seq, event):
        self.entries.append((when, seq, event))
        self.entries.sort(key=lambda entry: entry[:2])

    def peek(self):
        return self.entries[0][0] if self.entries else float("inf")

    def pop_one(self):
        when, _seq, event = self.entries.pop(0)
        return when, event

    def pop_batch(self, limit=float("inf")):
        if not self.entries or self.entries[0][0] > limit:
            return None
        when = self.entries[0][0]
        batch = [entry[2] for entry in self.entries if entry[0] == when]
        del self.entries[: len(batch)]
        return when, batch

    def requeue(self, when, events):
        self.front_seq -= len(events)
        for offset, event in enumerate(events):
            self.push(when, self.front_seq + offset, event)


@given(st.lists(_OPS, max_size=120))
@settings(max_examples=150, deadline=None)
def test_heap_queue_matches_sorted_list_model_on_any_operation_sequence(ops):
    """Lock-step op replay: queue and model agree on every observable."""
    model = SortedListModel()
    heap = HeapQueue()
    seq = 0
    token = 0
    now = 0.0  # the kernel never pushes into the past
    for op in ops:
        kind = op[0]
        assert len(heap) == heap.size == len(model)
        assert heap.peek() == model.peek()
        if kind == "push":
            _, delay, count = op
            for _ in range(count):
                when = now + delay
                model.push(when, seq, token)
                heap.push(when, seq, token)
                seq += 1
                token += 1
        elif kind == "pop_one":
            if not len(model):
                continue
            got_h = heap.pop_one()
            assert got_h == model.pop_one()
            now = got_h[0]
        elif kind == "pop_batch":
            limit = now + op[1]
            got_h = heap.pop_batch(limit)
            assert got_h == model.pop_batch(limit)
            if got_h is not None:
                now = got_h[0]
        else:  # requeue: pop a batch, put an unprocessed tail back
            keep = op[1]
            got_h = heap.pop_batch()
            assert got_h == model.pop_batch()
            if got_h is None:
                continue
            when, batch = got_h
            now = when
            tail = batch[len(batch) - keep :] if keep else []
            if tail:
                model.requeue(when, list(tail))
                heap.requeue(when, list(tail))
    while len(model):
        assert heap.pop_one() == model.pop_one()
    assert heap.pop_batch() is None and model.pop_batch() is None
    assert heap.peek() == model.peek() == float("inf")


class _NullMonitor:
    """Attaching any monitor switches ``run`` to its ``peek()/step()`` loop."""

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
def test_batched_run_matches_step_loop_on_any_scenario(specs, hits):
    """Same scenario, one full dispatch trace per dispatch path."""

    def run_with(monitor):
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
            # A triggered-then-defused failure exercises the error lane of
            # the batch dispatcher without killing the run.
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
        env.run(until=50.0)
        return trace, env.now, env.events_processed

    assert run_with(None) == run_with(_NullMonitor())
