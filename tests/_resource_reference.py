"""The explicit FCFS resource, kept as a test reference.

:class:`Resource` models a server with fixed capacity and an infinite FIFO
queue, one grant event per request.  Nothing in ``src/`` uses it:
:class:`~repro.net.channel.ServerChannel` computes each departure on arrival,
and ``tests/test_net_channel_p2p.py`` checks that against this class
(``tests/test_sim_resources.py`` pins the class itself).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List

from repro.sim.kernel import Environment, Event, SimulationError

__all__ = ["Resource"]


class Resource:
    """A capacity-limited resource with an infinite FCFS wait queue.

    Usage from a process::

        grant = resource.request()
        yield grant
        try:
            ...  # hold the resource
        finally:
            resource.release(grant)
    """

    __slots__ = ("env", "capacity", "_users", "_queue")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Event] = []
        self._queue: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self._queue)

    def request(self) -> Event:
        """Ask for a grant.  The returned event fires when granted."""
        grant = Event(self.env)
        if len(self._users) < self.capacity:
            self._users.append(grant)
            grant.succeed()
        else:
            self._queue.append(grant)
        return grant

    def release(self, grant: Event) -> None:
        """Return a grant; hands the slot to the oldest waiter, if any."""
        try:
            self._users.remove(grant)
        except ValueError:
            # Granted but never fired (still queued): cancel the request.
            try:
                self._queue.remove(grant)
                return
            except ValueError:
                raise SimulationError("release() of a grant not held") from None
        if self._queue:
            waiter = self._queue.popleft()
            self._users.append(waiter)
            waiter.succeed()

    def acquire(self, hold_time: float) -> Iterator[Event]:
        """Process helper: request, hold for ``hold_time``, release.

        Intended to be delegated to with ``yield from``::

            yield from resource.acquire(tx_time)
        """
        grant = self.request()
        yield grant
        try:
            yield self.env.timeout(hold_time)
        finally:
            self.release(grant)

