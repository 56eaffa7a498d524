"""Property-based tests of the DES kernel's scheduling invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import AnyOf, Environment
from tests._resource_reference import Resource


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=40))
@settings(max_examples=60)
def test_clock_monotone_and_events_fire_in_time_order(delays):
    env = Environment()
    fired = []

    def waiter(delay):
        yield env.timeout(delay)
        fired.append((env.now, delay))

    for delay in delays:
        env.process(waiter(delay))
    env.run()
    times = [t for t, _ in fired]
    assert times == sorted(times)
    assert [t for t, _ in fired] == [d for _, d in fired]
    assert env.now == (max(delays) if delays else 0.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=10.0),  # arrival
            st.floats(min_value=0.01, max_value=5.0),  # hold time
        ),
        min_size=1,
        max_size=15,
    ),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40)
def test_resource_never_exceeds_capacity_and_serves_everyone(jobs, capacity):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    active = [0]
    peak = [0]
    served = []

    def job(tag, arrival, hold):
        yield env.timeout(arrival)
        grant = resource.request()
        yield grant
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        yield env.timeout(hold)
        active[0] -= 1
        resource.release(grant)
        served.append(tag)

    for tag, (arrival, hold) in enumerate(jobs):
        env.process(job(tag, arrival, hold))
    env.run()
    assert peak[0] <= capacity
    assert sorted(served) == list(range(len(jobs)))
    assert resource.count == 0
    assert resource.queue_length == 0


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=50.0),
        min_size=1,
        max_size=10,
        unique=True,
    )
)
@settings(max_examples=60)
def test_any_of_fires_at_the_earliest_timeout_with_the_right_winner(delays):
    """The COCA reply-or-timeout race: AnyOf resolves at min(delays)."""
    env = Environment()
    outcome = {}

    def racer():
        timeouts = [env.timeout(delay, value=delay) for delay in delays]
        fired = yield AnyOf(env, timeouts)
        outcome["at"] = env.now
        outcome["values"] = sorted(fired.values())

    env.process(racer())
    env.run()
    assert outcome["at"] == min(delays)
    assert outcome["values"] == [min(delays)]


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=20.0),  # AnyOf arm A
            st.floats(min_value=0.0, max_value=20.0),  # AnyOf arm B
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=60)
def test_interleaved_any_of_races_each_resolve_at_their_own_minimum(pairs):
    """Many concurrent two-way races never cross-wake each other."""
    env = Environment()
    resolved = {}

    def racer(tag, a, b):
        yield AnyOf(env, [env.timeout(a), env.timeout(b)])
        resolved[tag] = env.now

    for tag, (a, b) in enumerate(pairs):
        env.process(racer(tag, a, b))
    env.run()
    assert resolved == {tag: min(a, b) for tag, (a, b) in enumerate(pairs)}


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=30.0),
        min_size=2,
        max_size=12,
        unique=True,
    ),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.5, max_value=5.0),
)
@settings(max_examples=60)
def test_resource_grants_are_fcfs_with_no_starvation(arrivals, capacity, hold):
    """Grant order equals request order; every job is eventually served."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    granted = []

    def job(tag, arrival):
        yield env.timeout(arrival)
        grant = resource.request()
        yield grant
        granted.append(tag)
        yield env.timeout(hold)
        resource.release(grant)

    for tag, arrival in enumerate(arrivals):
        env.process(job(tag, arrival))
    env.run()
    # Unique arrivals fix the request order; FCFS must preserve it.
    expected = [tag for tag, _ in sorted(enumerate(arrivals), key=lambda x: x[1])]
    assert granted == expected


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=3))
@settings(max_examples=30)
def test_resource_queue_drains_in_fifo_order_under_contention(jobs, capacity):
    """Simultaneous arrivals queue and are granted in submission order."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    granted = []

    def job(tag):
        grant = resource.request()
        yield grant
        granted.append(tag)
        yield env.timeout(1.0)
        resource.release(grant)

    def spawner():
        # Issue every request at the same instant, in tag order.
        for tag in range(jobs):
            env.process(job(tag))
        yield env.timeout(0.0)

    env.process(spawner())
    env.run()
    assert granted == list(range(jobs))
    assert resource.count == 0
    assert resource.queue_length == 0


@given(st.integers(min_value=1, max_value=50))
@settings(max_examples=20)
def test_process_chain_depth(depth):
    """Deeply nested process waits resolve in order without blowing up."""
    env = Environment()

    def level(n):
        if n == 0:
            yield env.timeout(1.0)
            return 0
        value = yield env.process(level(n - 1))
        return value + 1

    root = env.process(level(depth))
    env.run()
    assert root.value == depth
    assert env.now == 1.0
