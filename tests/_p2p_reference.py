"""The mask-per-frame P2P medium and ndarray power ledger, kept as a test
reference.

``src/`` keeps ``P2PNetwork.connected`` as a ``list[bool]`` and the ledger
as one ``list[float]`` per purpose: a frame takes its receivers from the
adjacency row as a list and charges them one Python float add each
(``PowerLedger.charge_hosts``).  This is the design it replaced, copied from
the revision before (``3ac21a3``): ``connected`` a bool ndarray, receivers
and the three unicast bystander classes built as N-long bool masks, and
every class charged by a masked ``np.add`` (``charge_where``).  Nothing in
``src/`` uses it: ``tests/test_p2p_medium_differential.py`` drives both
media through the same traffic and requires equal observations, the same
module pins the ledger's sums against :class:`MaskChargedLedger`, and
``benchmarks/test_micro_p2p.py`` times them side by side.

``MaskChargedLedger`` (but for ``per_host``, the public accessor the
comparisons read), ``broadcast`` and ``unicast`` are verbatim, and so are
``_wait_medium`` and ``unicast_route``, copied from the revision before
sends became kernel callbacks (``5610245``): here every send is still a
generator, driven by ``yield from`` inside a process.  The wiring,
``tx_time`` and ``_occupy`` are the same code on both sides and are
inherited.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.net.message import Message
from repro.net.p2p import P2PNetwork
from repro.net.power import PURPOSES

__all__ = ["MaskChargedLedger", "MaskP2PNetwork"]


class MaskChargedLedger:
    """Per-host accumulated power consumption in µW·s, split by purpose."""

    def __init__(self, n_hosts: int):
        if n_hosts < 1:
            raise ValueError("ledger needs at least one host")
        self.n_hosts = n_hosts
        self._by_purpose: Dict[str, np.ndarray] = {
            purpose: np.zeros(n_hosts) for purpose in PURPOSES
        }

    def charge(self, host: int, amount: float, purpose: str = "data") -> None:
        """Charge one host.  ``amount`` must be non-negative (NaN is not)."""
        if not amount >= 0:
            raise ValueError(f"power charge must be >= 0, got {amount}")
        self._by_purpose[purpose][host] += amount

    def charge_where(
        self, mask: np.ndarray, amount: float, purpose: str = "data"
    ) -> None:
        """Charge the same amount to every host whose ``mask`` entry is set
        (e.g. the receivers of one broadcast).  A bool mask over the
        population cannot name a host twice."""
        if not amount >= 0:
            raise ValueError(f"power charge must be >= 0, got {amount}")
        if mask.dtype != bool or mask.shape != (self.n_hosts,):
            raise ValueError(
                f"charge_where needs a bool mask of shape ({self.n_hosts},), "
                f"got dtype {mask.dtype} and shape {mask.shape}"
            )
        array = self._by_purpose[purpose]
        np.add(array, amount, out=array, where=mask)

    def charge_each(self, amounts: np.ndarray, purpose: str = "data") -> None:
        """Charge host ``i`` the amount ``amounts[i]`` (one dense add)."""
        amounts = np.asarray(amounts, dtype=float)
        if amounts.shape != (self.n_hosts,):
            raise ValueError(
                f"charge_each needs {self.n_hosts} amounts, got shape {amounts.shape}"
            )
        if not (amounts >= 0).all():
            raise ValueError("power charges must all be >= 0")
        self._by_purpose[purpose] += amounts

    def per_host(self, purpose: str) -> List[float]:
        return self._by_purpose[purpose].tolist()

    def host_total(self, host: int) -> float:
        return float(sum(array[host] for array in self._by_purpose.values()))

    def total(self, purpose: str = None) -> float:
        """System-wide consumption, optionally for one purpose."""
        if purpose is not None:
            return float(self._by_purpose[purpose].sum())
        return float(sum(array.sum() for array in self._by_purpose.values()))

    def by_purpose(self) -> Dict[str, float]:
        return {
            purpose: float(array.sum()) for purpose, array in self._by_purpose.items()
        }

    def per_host_totals(self) -> np.ndarray:
        """Every host's total consumption across all purposes (µW·s).

        Used by the invariant monitor's power audit (non-negativity and
        conservation over the whole population in one vector read).
        """
        total = np.zeros(self.n_hosts)
        for array in self._by_purpose.values():
            total += array
        return total


class MaskP2PNetwork(P2PNetwork):
    """The medium with a bool-ndarray ``connected``; needs a
    :class:`MaskChargedLedger`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.connected = np.ones(len(self.field), dtype=bool)

    def _wait_medium(self, node: int):
        """Defer until the host's radio is idle (CSMA)."""
        busy = self._busy_until
        while True:
            gap = busy[node] - self.env.now
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
        if self._busy_until[src] - self.env.now > 1e-12:
            yield from self._wait_medium(src)
        connected = self.connected
        if not connected[src]:
            return []
        now = self.env.now
        size = message.size
        air = self.tx_time(size)
        in_range = self.field.adjacency(now, self.tran_range)[src] & connected
        heard = in_range.nonzero()[0].tolist()
        self._occupy(src, heard, now + air)
        model = self.model
        ledger = self.ledger
        send_cost = model.bc_send(size)
        recv_cost = model.bc_recv(size)
        if signature_bytes > 0:
            sig_send = model.parameters.bc_send_v * signature_bytes
            sig_recv = model.parameters.bc_recv_v * signature_bytes
            ledger.charge(src, sig_send, "signature")
            ledger.charge_where(in_range, sig_recv, "signature")
            send_cost -= sig_send
            recv_cost -= sig_recv
        ledger.charge(src, send_cost, purpose)
        ledger.charge_where(in_range, recv_cost, purpose)
        self.broadcasts += 1
        yield self.env.timeout(air)
        faults = self.faults
        handlers = self._handlers
        delivered = []
        for receiver in heard:
            if not connected[receiver]:
                continue
            if faults is not None and faults.drop_p2p(receiver):
                continue  # frame corrupted at this receiver; power already paid
            delivered.append(receiver)
            handler = handlers[receiver]
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
        if self._busy_until[src] - self.env.now > 1e-12:
            yield from self._wait_medium(src)
        connected = self.connected
        if not connected[src]:
            return False
        now = self.env.now
        size = message.size
        air = self.tx_time(size)
        # Bystander partition as boolean masks over the population: each
        # host lands in exactly one disjoint class.
        adjacency = self.field.adjacency(now, self.tran_range)
        in_src = adjacency[src] & connected
        in_dst = adjacency[dst] & connected
        in_dst[src] = False
        deliverable = bool(in_src[dst])
        self._occupy(src, in_src.nonzero()[0].tolist(), now + air)

        model = self.model
        ledger = self.ledger
        ledger.charge(src, model.ptp_send(size), purpose)
        if deliverable:
            ledger.charge(dst, model.ptp_recv(size), purpose)
        in_src[dst] = False  # bystanders exclude the destination itself
        ledger.charge_where(in_src & in_dst, model.ptp_discard_sd(size), purpose)
        ledger.charge_where(in_src & ~in_dst, model.ptp_discard_s(size), purpose)
        ledger.charge_where(in_dst & ~in_src, model.ptp_discard_d(size), purpose)

        self.unicasts += 1
        yield self.env.timeout(air)
        if not (deliverable and connected[dst]):
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

    def unicast_route(
        self, path: List[int], message: Message, purpose: str = "data"
    ):
        """Relay a message hop-by-hop along ``path`` (first element = sender).

        Process helper; returns True when every hop succeeded.  Used for
        replies/retrievals to peers found beyond one hop (HopDist > 1).
        """
        if len(path) < 2:
            raise ValueError("route needs at least sender and destination")
        last = len(path) - 2
        for hop, (hop_src, hop_dst) in enumerate(zip(path, path[1:])):
            delivered = yield from self.unicast(
                hop_src, hop_dst, message, purpose, deliver=(hop == last)
            )
            if not delivered:
                return False
        return True
