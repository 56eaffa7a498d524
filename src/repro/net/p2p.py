"""The half-duplex P2P wireless medium (Section III / V-A).

Every host has one P2P network interface with an omnidirectional antenna and
transmission range ``TranRange``.  The medium is modelled CSMA-style with a
per-host *busy-until* horizon: a transmission defers until its sender's
radio is free, then occupies the radios of every host in range for the
transmission time.  This deadlock-free approximation reproduces the local
congestion effects the paper reports for large motion groups (Fig. 5) and
dense systems (Fig. 7).

Power is charged per Table I: broadcast send/receive for REQUEST beacons,
point-to-point send/receive plus bystander-discard costs for targeted
messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.mobility.field import MobilityField
from repro.net.faults import FaultInjector
from repro.net.message import Message
from repro.net.power import PowerLedger, PowerModel
from repro.sim.kernel import Environment, Event

__all__ = ["P2PNetwork"]

Handler = Callable[[Message], None]


class P2PNetwork:
    """Broadcast / point-to-point primitives over the shared medium."""

    def __init__(
        self,
        env: Environment,
        field: MobilityField,
        bandwidth_bps: float,
        tran_range: float,
        ledger: PowerLedger,
        model: Optional[PowerModel] = None,
        faults: Optional[FaultInjector] = None,
    ):
        if not 0 < bandwidth_bps < math.inf:
            raise ValueError("bandwidth must be positive and finite")
        if not 0 < tran_range < math.inf:
            raise ValueError("transmission range must be positive and finite")
        self.env = env
        self.field = field
        self.bandwidth_bps = float(bandwidth_bps)
        self.tran_range = float(tran_range)
        self.ledger = ledger
        self.model = model or PowerModel()
        #: Optional seeded loss process; ``None`` keeps the ideal channel.
        self.faults = faults
        n = len(field)
        # Python scalars per radio, not ndarrays: a frame reads about six
        # entries of each, where any numpy call costs more than the work.
        # The defer gap read out of the horizon also goes to
        # ``Environment.call_later`` and becomes the kernel clock, and a numpy
        # scalar there slows every later heap comparison.
        self.connected: List[bool] = [True] * n
        self._busy_until: List[float] = [0.0] * n
        self._handlers: List[Optional[Handler]] = [None] * n
        # Traffic counters (for diagnostics and the ablation benches).
        self.broadcasts = 0
        self.unicasts = 0
        self.failed_unicasts = 0
        # Down-transition watchers: events succeeded when a node leaves
        # the air (crash or graceful disconnect).  Used by the failure-
        # aware retrieve path to fail over the moment a serving peer
        # drops instead of burning the full data-guard timeout.
        self._down_watchers: Dict[int, List[object]] = {}

    # -- wiring ---------------------------------------------------------------

    def _check_host(self, node: int) -> None:
        # Checked at the boundary: a negative index would silently name a
        # host from the end of every per-radio list.
        if not 0 <= node < len(self.connected):
            raise ValueError(f"no host {node}: hosts are 0..{len(self.connected) - 1}")

    def register_handler(self, node: int, handler: Handler) -> None:
        """Install the receive callback of a host."""
        self._check_host(node)
        self._handlers[node] = handler

    def set_connected(self, node: int, is_connected: bool) -> None:
        self._check_host(node)
        self.connected[node] = bool(is_connected)
        if not is_connected:
            watchers = self._down_watchers.pop(node, None)
            if watchers:
                for event in watchers:
                    if not event.triggered:
                        event.succeed(node)

    def is_connected(self, node: int) -> bool:
        return self.connected[node]

    def watch_down(self, node: int, event) -> None:
        """Succeed ``event`` (with the node index) when ``node`` next
        goes off the air; fires immediately if it is already down."""
        self._check_host(node)
        if not self.connected[node]:
            if not event.triggered:
                event.succeed(node)
            return
        self._down_watchers.setdefault(node, []).append(event)

    def unwatch_down(self, node: int, event) -> None:
        """Withdraw a watcher registered with :meth:`watch_down`."""
        watchers = self._down_watchers.get(node)
        if watchers is None:
            return
        try:
            watchers.remove(event)
        except ValueError:
            return
        if not watchers:
            del self._down_watchers[node]

    # -- physical layer --------------------------------------------------------

    def tx_time(self, size_bytes: int) -> float:
        """Air time of a message of the given size."""
        return size_bytes * 8.0 / self.bandwidth_bps

    def _occupy(self, src: int, heard: List[int], end: float) -> None:
        """Keep the sender's radio and every radio in ``heard`` busy to ``end``."""
        busy = self._busy_until
        if busy[src] < end:
            busy[src] = end
        for radio in heard:
            if busy[radio] < end:
                busy[radio] = end

    # -- sends ------------------------------------------------------------------

    def broadcast(
        self, src: int, message: Message, purpose: str = "data", signature_bytes: int = 0
    ) -> None:
        """Transmit to every connected host in range; nothing waits on it.

        Receivers are fixed at transmission start; delivery happens after the
        air time, to hosts still connected.  ``signature_bytes`` attributes
        the variable power cost of that many piggybacked bytes (GroCoCa's
        signature update information) to the ledger's ``signature`` purpose.
        """
        self._check_host(src)
        _Broadcast(self, src, message, purpose, signature_bytes).start()

    def unicast(
        self, src: int, dst: int, message: Message, purpose: str = "data"
    ) -> Event:
        """Transmit to one host: a one-hop :meth:`unicast_route`."""
        return self.unicast_route([src, dst], message, purpose)

    def unicast_route(
        self, path: List[int], message: Message, purpose: str = "data"
    ) -> Event:
        """Relay a message hop-by-hop along ``path`` (first element = sender).

        Each hop's sender spends power regardless; bystanders in range of it
        and/or the hop's destination pay the Table I discard costs.  Only the
        last host's handler sees the message.  The returned event is
        processed in place, with True once every hop succeeded or False at
        the first that did not (at once when the sender is off the air), so
        ``sent = yield network.unicast_route(...)`` resumes at that instant.
        """
        if len(path) < 2 or any(a == b for a, b in zip(path, path[1:])):
            raise ValueError(f"route needs 2+ hosts and no hop to itself: {path}")
        for node in path:
            self._check_host(node)
        route = _Route(self, path[0], message, purpose, path, self.env.event())
        route.start()
        return route.done


@dataclass(slots=True)
class _Frame:
    """One send as bare kernel calls, not a process.  ``start`` is the CSMA
    check: on a busy radio it re-polls with one call at the horizon it
    reads; on an idle one ``_transmit`` fixes who hears the frame, charges it
    and schedules its air-time call, where the receive handlers run (an
    exception one raises leaves ``Environment.run`` at that pop)."""

    net: P2PNetwork
    src: int
    message: Message
    purpose: str

    def start(self) -> None:
        env = self.net.env
        now = env.now
        gap = self.net._busy_until[self.src] - now
        if gap > 1e-12:
            env.call_later(gap, self.start)
        else:
            self._transmit(now)


@dataclass(slots=True)
class _Broadcast(_Frame):
    signature_bytes: int
    heard: Optional[List[int]] = None

    def _transmit(self, now: float) -> None:
        net = self.net
        src = self.src
        connected = net.connected
        if not connected[src]:
            return
        size = self.message.size
        air = net.tx_time(size)
        # The snapshot's row is numpy; from here on the frame is a list.
        row = net.field.adjacency(now, net.tran_range)[src]
        heard = self.heard = [r for r in row.nonzero()[0].tolist() if connected[r]]
        net._occupy(src, heard, now + air)
        model = net.model
        ledger = net.ledger
        purpose = self.purpose
        send_cost = model.bc_send(size)
        recv_cost = model.bc_recv(size)
        signature_bytes = self.signature_bytes
        if signature_bytes > 0:
            sig_send = model.parameters.bc_send_v * signature_bytes
            sig_recv = model.parameters.bc_recv_v * signature_bytes
            ledger.charge(src, sig_send, "signature")
            ledger.charge_hosts(heard, sig_recv, "signature")
            send_cost -= sig_send
            recv_cost -= sig_recv
        ledger.charge(src, send_cost, purpose)
        ledger.charge_hosts(heard, recv_cost, purpose)
        net.broadcasts += 1
        net.env.call_later(air, self.deliver)

    def deliver(self) -> None:
        net = self.net
        connected = net.connected
        faults = net.faults
        handlers = net._handlers
        for receiver in self.heard:
            if not connected[receiver]:
                continue
            if faults is not None and faults.drop_p2p(receiver):
                continue  # frame corrupted at this receiver; power already paid
            handler = handlers[receiver]
            if handler is not None:
                handler(self.message)


@dataclass(slots=True)
class _Route(_Frame):
    """Hop ``hop`` goes from ``src`` to ``path[hop + 1]``."""

    path: List[int]
    done: Event
    hop: int = 0
    deliverable: bool = False

    def _transmit(self, now: float) -> None:
        net = self.net
        src = self.src
        dst = self.path[self.hop + 1]
        connected = net.connected
        if not connected[src]:
            self.done.succeed_now(False)
            return
        size = self.message.size
        air = net.tx_time(size)
        # One pass over the source's row sorts every connected radio near
        # it into a bystander class; list membership on a row of about six
        # hosts is cheaper than any set or mask.  Neither end is in its own
        # row, so the classes never hold the source or the destination.
        adjacency = net.field.adjacency(now, net.tran_range)
        row_dst = adjacency[dst].nonzero()[0].tolist()
        near_src: List[int] = []
        near_both: List[int] = []
        near_src_only: List[int] = []
        for r in adjacency[src].nonzero()[0].tolist():
            if connected[r]:
                near_src.append(r)
                if r in row_dst:
                    near_both.append(r)
                elif r != dst:
                    near_src_only.append(r)
        near_dst_only = [
            r for r in row_dst if connected[r] and r != src and r not in near_src
        ]
        deliverable = self.deliverable = dst in near_src
        net._occupy(src, near_src, now + air)

        model = net.model
        ledger = net.ledger
        purpose = self.purpose
        ledger.charge(src, model.ptp_send(size), purpose)
        if deliverable:
            ledger.charge(dst, model.ptp_recv(size), purpose)
        ledger.charge_hosts(near_both, model.ptp_discard_sd(size), purpose)
        ledger.charge_hosts(near_src_only, model.ptp_discard_s(size), purpose)
        ledger.charge_hosts(near_dst_only, model.ptp_discard_d(size), purpose)

        net.unicasts += 1
        net.env.call_later(air, self.arrive)

    def arrive(self) -> None:
        net = self.net
        self.hop += 1
        dst = self.path[self.hop]
        if not (self.deliverable and net.connected[dst]) or (
            net.faults is not None and net.faults.drop_p2p(dst)
        ):
            net.failed_unicasts += 1
            self.done.succeed_now(False)
        elif self.hop < len(self.path) - 1:
            self.src = dst  # a relay: the next hop starts in this step
            self.start()
        else:
            handler = net._handlers[dst]
            if handler is not None:
                handler(self.message)
            self.done.succeed_now(True)
