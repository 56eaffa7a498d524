"""A module simlint must pass untouched (fixture, never imported)."""

from typing import List

from doors import open  # shadows the builtin: a simulated door, not file I/O


def deterministic_order(hosts: List[int]) -> List[int]:
    pending = sorted(set(hosts))
    return [host for host in pending]


def elapsed(env):
    started = env.now
    yield env.timeout(1.0)
    return env.now - started


def doorman(env):
    yield env.timeout(1.0)
    open("lobby")
