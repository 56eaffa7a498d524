"""Closed-form hit ratios the simulator did not write.

Che's approximation of an LRU cache under independent requests: a cache
of ``C`` items behaves as if each item stayed for a fixed characteristic
time ``T``, the root of ``sum_i (1 - exp(-p_i T)) = C``, so item ``i`` is
in the cache with probability ``h_i = 1 - exp(-p_i T)``.  Requests are
Zipf over one motion group's window: ``p_i`` proportional to
``i ** -theta`` for ``i = 1 .. access_range``.

Avrachenkov et al.'s any-covering-cache model then gives the cooperative
hit: a request a host's own cache misses is a global hit when any of its
``k = group_size - 1`` group-mates holds the item.  The group-mates share
the window and always stand within transmission range (``group_span``
50 m against ``tran_range`` 100 m), and their caches are taken as
independent draws of the same LRU state.  Peers cache what they fetch
from peers, so independence overstates how different their caches are.
"""

import numpy as np


def zipf_probabilities(n: int, theta: float) -> np.ndarray:
    """``p_i`` proportional to ``i ** -theta``, ``i = 1 .. n``."""
    weights = np.arange(1, n + 1, dtype=float) ** -theta
    return weights / weights.sum()


def characteristic_time(p: np.ndarray, capacity: int) -> float:
    """Che's ``T``: the root of ``sum(1 - exp(-p T)) = capacity``, by
    bisection (the left side rises from 0 towards ``len(p)``)."""
    if not 0 < capacity < len(p):
        raise ValueError(f"capacity must be in (0, {len(p)}), got {capacity}")

    def filled(t: float) -> float:
        return float(np.sum(-np.expm1(-p * t)))

    lo, hi = 0.0, 1.0
    while filled(hi) < capacity:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if filled(mid) < capacity else (lo, mid)
    return 0.5 * (lo + hi)


def hit_probabilities(n: int, theta: float, capacity: int):
    """``(p, h)``: request and in-cache probabilities of every item."""
    p = zipf_probabilities(n, theta)
    return p, -np.expm1(-p * characteristic_time(p, capacity))


def local_hit_percent(n: int, theta: float, capacity: int) -> float:
    """A host's own-cache hit ratio, in percent: ``sum p_i h_i``."""
    p, h = hit_probabilities(n, theta, capacity)
    return 100.0 * float(np.dot(p, h))


def group_hit_percent(n: int, theta: float, capacity: int, group_size: int) -> float:
    """The cooperative (global) hit ratio, in percent: a request the own
    cache misses that one of the ``group_size - 1`` mates holds,
    ``sum p_i (1 - (1 - h_i) ** group_size)`` minus the local hit."""
    p, h = hit_probabilities(n, theta, capacity)
    covered = np.dot(p, 1.0 - (1.0 - h) ** group_size)
    return 100.0 * float(covered - np.dot(p, h))
