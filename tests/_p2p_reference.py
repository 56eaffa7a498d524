"""The numpy-per-frame P2P medium, kept as a test reference.

``src/`` keeps one Python float per radio in ``P2PNetwork._busy_until``,
walks a frame's receivers as a list and charges them through a bool mask
(``PowerLedger.charge_where``).  This is the design it replaced, copied from
the revision before (``7f437d5``): an ndarray horizon advanced with
fancy-indexed ``np.maximum``, receivers handled as an index array, and
``charge_many`` proving its indices distinct on every call.  A defer gap read
out of the ndarray is a ``numpy.float64``, so on this side the kernel clock
turns into one.  Nothing in ``src/`` uses it:
``tests/test_p2p_medium_differential.py`` drives both media through the same
traffic and requires equal observations, and ``benchmarks/test_micro_p2p.py``
times them side by side.

``broadcast``, ``unicast``, ``_wait_medium`` and ``charge_many`` are verbatim;
everything else (wiring, ``neighbors``, ``unicast_route``) is the same code
on both sides and is inherited.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.net.message import Message
from repro.net.p2p import P2PNetwork
from repro.net.power import PowerLedger

__all__ = ["ArrayHorizonP2PNetwork", "IndexChargedLedger"]


class IndexChargedLedger(PowerLedger):
    """A ledger that still charges groups of hosts by index array."""

    def charge_many(
        self, hosts: Iterable[int], amount: float, purpose: str = "data"
    ) -> None:
        """Charge the same amount to several *distinct* hosts (e.g. the
        receivers of one broadcast)."""
        if not amount >= 0:
            raise ValueError(f"power charge must be >= 0, got {amount}")
        hosts = np.asarray(list(hosts) if not isinstance(hosts, np.ndarray) else hosts)
        if not hosts.size:
            return
        # A fancy-indexed += applies once per distinct index, so a repeated
        # host would be silently under-charged.
        if hosts.size > 1 and len(set(hosts.tolist())) != hosts.size:
            raise ValueError(f"duplicate hosts in charge_many: {hosts.tolist()}")
        self._by_purpose[purpose][hosts] += amount


class ArrayHorizonP2PNetwork(P2PNetwork):
    """The medium with an ndarray busy horizon; needs an
    :class:`IndexChargedLedger`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._busy_until = np.zeros(len(self.field))

    def _wait_medium(self, node: int):
        """Defer until the host's radio is idle (CSMA)."""
        while True:
            gap = self._busy_until[node] - self.env.now
            if gap <= 1e-12:
                return
            yield self.env.timeout(gap)

    def broadcast(
        self,
        src: int,
        message: Message,
        purpose: str = "data",
        signature_bytes: int = 0,
    ):
        busy = self._busy_until
        if busy[src] - self.env.now > 1e-12:
            yield from self._wait_medium(src)
        if not self.connected[src]:
            return []
        now = self.env.now
        air = self.tx_time(message.size)
        receivers = self.neighbors(src)
        end = now + air
        if busy[src] < end:
            busy[src] = end
        if len(receivers):
            busy[receivers] = np.maximum(busy[receivers], end)
        send_cost = self.model.bc_send(message.size)
        recv_cost = self.model.bc_recv(message.size)
        if signature_bytes > 0:
            sig_send = self.model.parameters.bc_send_v * signature_bytes
            sig_recv = self.model.parameters.bc_recv_v * signature_bytes
            self.ledger.charge(src, sig_send, "signature")
            self.ledger.charge_many(receivers, sig_recv, "signature")
            send_cost -= sig_send
            recv_cost -= sig_recv
        self.ledger.charge(src, send_cost, purpose)
        self.ledger.charge_many(receivers, recv_cost, purpose)
        self.broadcasts += 1
        yield self.env.timeout(air)
        delivered = []
        for receiver in receivers:
            receiver = int(receiver)
            if not self.connected[receiver]:
                continue
            if self.faults is not None and self.faults.drop_p2p(receiver):
                continue  # frame corrupted at this receiver; power already paid
            delivered.append(receiver)
            handler = self._handlers[receiver]
            if handler is not None:
                handler(message)
        return delivered

    def unicast(
        self,
        src: int,
        dst: int,
        message: Message,
        purpose: str = "data",
        deliver: bool = True,
    ):
        if src == dst:
            raise ValueError("unicast to self")
        busy = self._busy_until
        if busy[src] - self.env.now > 1e-12:
            yield from self._wait_medium(src)
        if not self.connected[src]:
            return False
        now = self.env.now
        air = self.tx_time(message.size)
        size = message.size
        # Bystander partition as boolean masks over the population: each
        # host lands in exactly one disjoint class.
        adjacency = self.field.adjacency(now, self.tran_range)
        in_src = adjacency[src] & self.connected
        in_dst = adjacency[dst] & self.connected
        near_src = np.nonzero(in_src)[0]
        in_dst[src] = False
        deliverable = bool(in_src[dst])

        end = now + air
        if busy[src] < end:
            busy[src] = end
        if len(near_src):
            busy[near_src] = np.maximum(busy[near_src], end)

        self.ledger.charge(src, self.model.ptp_send(size), purpose)
        if deliverable:
            self.ledger.charge(dst, self.model.ptp_recv(size), purpose)
        in_src[dst] = False  # bystanders exclude the destination itself
        self.ledger.charge_many(
            np.nonzero(in_src & in_dst)[0], self.model.ptp_discard_sd(size), purpose
        )
        self.ledger.charge_many(
            np.nonzero(in_src & ~in_dst)[0], self.model.ptp_discard_s(size), purpose
        )
        self.ledger.charge_many(
            np.nonzero(in_dst & ~in_src)[0], self.model.ptp_discard_d(size), purpose
        )

        self.unicasts += 1
        yield self.env.timeout(air)
        if not (deliverable and self.connected[dst]):
            self.failed_unicasts += 1
            return False
        if self.faults is not None and self.faults.drop_p2p(dst):
            self.failed_unicasts += 1
            return False
        if deliver:
            handler = self._handlers[dst]
            if handler is not None:
                handler(message)
        return True
