"""MSS uplink/downlink channels (Section V-C).

The wireless channel between the MSS and the clients is a pair of shared
links with total bandwidths ``BW_server`` (downlink / uplink).  Requests are
buffered in an infinite FCFS queue while the link is busy — exactly the
paper's server model — so downlink saturation produces the latency blow-up
of Fig. 7.

A link is FCFS, a message's hold time is known when it arrives and no sender
is ever interrupted, so its departure is fixed on arrival: ``max(now,
free_at) + hold``, where ``free_at`` — the link's *busy horizon* — is the
departure of the message ahead.  A send is one kernel timeout at that
absolute instant; the queue itself is never materialised.

Per-link accounting mirrors :class:`~repro.net.p2p.P2PNetwork`'s traffic
counters: request counts, transferred bytes, dropped messages and the total
FCFS queue-wait time, so server-side congestion is observable per run.

With a :class:`~repro.net.faults.FaultInjector` attached, each send may be
lost after occupying the link (the transmission happened; the receiver got
garbage).  ``send_uplink`` / ``send_downlink`` return ``True`` when the
message survived, so the client protocol can retry a lost server request
instead of silently assuming delivery.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.net.faults import FaultInjector
from repro.sim.kernel import Environment

__all__ = ["ServerChannel"]


class _Link:
    """One FCFS link: busy until ``free_at``; ``in_flight`` sends are queued
    or in service, so all but one of them wait.
    """

    __slots__ = ("free_at", "in_flight")

    def __init__(self, now: float) -> None:
        self.free_at = now
        self.in_flight = 0


class ServerChannel:
    """Shared uplink and downlink with FCFS queueing."""

    def __init__(
        self,
        env: Environment,
        downlink_bps: float,
        uplink_bps: float,
        faults: Optional[FaultInjector] = None,
    ):
        if not (0 < downlink_bps < math.inf and 0 < uplink_bps < math.inf):
            raise ValueError("bandwidths must be positive and finite")
        self.env = env
        self.downlink_bps = float(downlink_bps)
        self.uplink_bps = float(uplink_bps)
        #: Optional seeded loss process; ``None`` keeps the ideal channel.
        self.faults = faults
        self._downlink = _Link(env.now)
        self._uplink = _Link(env.now)
        self.bytes_down = 0
        self.bytes_up = 0
        # Per-link traffic counters (symmetric to P2PNetwork's).
        self.uplink_requests = 0
        self.downlink_requests = 0
        self.uplink_drops = 0
        self.downlink_drops = 0
        #: Total simulated seconds spent waiting in each link's FCFS queue.
        self.uplink_wait = 0.0
        self.downlink_wait = 0.0

    def downlink_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.downlink_bps

    def uplink_time(self, size_bytes: int) -> float:
        return size_bytes * 8.0 / self.uplink_bps

    def _book(self, link: _Link, size_bytes: int, hold: float) -> Tuple[float, float]:
        """Book ``link``'s next slot; return the queue wait and the slot end.

        The slot stays booked even if the sender is thrown out of its wait:
        the horizon is all the link knows of its queue.
        """
        if not 0 <= hold < math.inf:  # also False for NaN
            raise ValueError(
                f"message size must be >= 0 bytes and finite, got {size_bytes}"
            )
        now = self.env.now
        start = link.free_at if link.free_at > now else now
        link.free_at = end = start + hold
        link.in_flight += 1
        return start - now, end

    def send_downlink(self, size_bytes: int):
        """Process helper: queue for and occupy the downlink.

        Usage: ``delivered = yield from channel.send_downlink(size)``.
        Returns ``True`` when the message survived the channel (always, in
        the fault-free model).
        """
        link = self._downlink
        waited, end = self._book(link, size_bytes, self.downlink_time(size_bytes))
        self.downlink_requests += 1
        self.bytes_down += size_bytes
        try:
            yield self.env.timeout_at(end)
        finally:
            link.in_flight -= 1
        self.downlink_wait += waited
        if self.faults is not None and self.faults.drop_downlink():
            self.downlink_drops += 1
            return False
        return True

    def send_uplink(self, size_bytes: int):
        """Process helper: queue for and occupy the uplink.

        Returns ``True`` when the message survived the channel.
        """
        link = self._uplink
        waited, end = self._book(link, size_bytes, self.uplink_time(size_bytes))
        self.uplink_requests += 1
        self.bytes_up += size_bytes
        try:
            yield self.env.timeout_at(end)
        finally:
            link.in_flight -= 1
        self.uplink_wait += waited
        if self.faults is not None and self.faults.drop_uplink():
            self.uplink_drops += 1
            return False
        return True

    @property
    def downlink_queue_length(self) -> int:
        return max(self._downlink.in_flight - 1, 0)

    @property
    def uplink_queue_length(self) -> int:
        return max(self._uplink.in_flight - 1, 0)

    @property
    def uplink_mean_wait(self) -> float:
        """Mean FCFS queue wait per uplink request (seconds)."""
        return self.uplink_wait / self.uplink_requests if self.uplink_requests else 0.0

    @property
    def downlink_mean_wait(self) -> float:
        """Mean FCFS queue wait per downlink request (seconds)."""
        return (
            self.downlink_wait / self.downlink_requests
            if self.downlink_requests
            else 0.0
        )
