"""Unit tests for Resource."""

import pytest

from repro.sim import Environment, SimulationError
from tests._resource_reference import Resource


def test_resource_serializes_users():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(tag, hold):
        grant = resource.request()
        yield grant
        log.append(("start", tag, env.now))
        yield env.timeout(hold)
        resource.release(grant)
        log.append(("end", tag, env.now))

    env.process(user("a", 5))
    env.process(user("b", 3))
    env.run()
    assert log == [
        ("start", "a", 0),
        ("end", "a", 5),
        ("start", "b", 5),
        ("end", "b", 8),
    ]


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    resource = Resource(env, capacity=2)
    starts = []

    def user(tag):
        grant = resource.request()
        yield grant
        starts.append((tag, env.now))
        yield env.timeout(10)
        resource.release(grant)

    for tag in range(3):
        env.process(user(tag))
    env.run()
    assert starts == [(0, 0), (1, 0), (2, 10)]


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(tag, arrive):
        yield env.timeout(arrive)
        grant = resource.request()
        yield grant
        order.append(tag)
        yield env.timeout(100)
        resource.release(grant)

    for tag, arrive in enumerate([0, 1, 2, 3]):
        env.process(user(tag, arrive))
    env.run()
    assert order == [0, 1, 2, 3]


def test_resource_acquire_helper():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(tag):
        yield from resource.acquire(4)
        log.append((tag, env.now))

    env.process(user("x"))
    env.process(user("y"))
    env.run()
    assert log == [("x", 4), ("y", 8)]


def test_resource_release_queued_request_cancels_it():
    env = Environment()
    resource = Resource(env, capacity=1)
    held = resource.request()
    queued = resource.request()
    assert resource.queue_length == 1
    resource.release(queued)  # cancel while still waiting
    assert resource.queue_length == 0
    resource.release(held)
    assert resource.count == 0


def test_resource_release_unknown_grant_raises():
    env = Environment()
    resource = Resource(env, capacity=1)
    foreign = env.event()
    with pytest.raises(SimulationError):
        resource.release(foreign)


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resource_counters():
    env = Environment()
    resource = Resource(env, capacity=1)
    first = resource.request()
    resource.request()
    assert resource.count == 1
    assert resource.queue_length == 1
    resource.release(first)
    assert resource.count == 1
    assert resource.queue_length == 0

