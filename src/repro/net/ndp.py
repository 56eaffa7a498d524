"""Neighbor discovery protocol (Section III, refs [22, 23]).

Every beacon interval each connected host broadcasts a small *hello*
message.  A host considers a link up while it has heard a peer within the
last ``miss_limit`` beacon cycles.  The beacon traffic is tiny, so it is
charged to the ledger (purpose ``"beacon"``) in bulk per cycle rather than
serialised through the CSMA medium; the power ledger still reflects every
send and reception.

Connectivity is tracked in a dense (N, N) float64 last-heard matrix.  One
beacon cycle reads the field's (N, N) bool adjacency of the current
position snapshot, masks it with the connected hosts on both axes and
stamps every heard link in one vector write — no per-sender loop.
"""

from __future__ import annotations

import numpy as np

from repro.net.p2p import P2PNetwork
from repro.sim.kernel import Environment

__all__ = ["NeighborDiscovery"]


class NeighborDiscovery:
    """Periodic hello beaconing and link-liveness queries."""

    def __init__(
        self,
        env: Environment,
        network: P2PNetwork,
        hello_size: int = 32,
        beacon_interval: float = 1.0,
        miss_limit: int = 3,
        charge_power: bool = True,
        monitor=None,
        tracer=None,
    ):
        if beacon_interval <= 0:
            raise ValueError("beacon_interval must be positive")
        if miss_limit < 1:
            raise ValueError("miss_limit must be >= 1")
        self.env = env
        self.network = network
        self.hello_size = int(hello_size)
        self.beacon_interval = float(beacon_interval)
        self.miss_limit = int(miss_limit)
        self.charge_power = charge_power
        #: Optional invariant oracle (duck-typed; see repro.check.monitor).
        self._monitor = monitor
        #: Optional span tracer (see repro.obs.tracer).
        self._tracer = tracer
        if tracer is not None:
            self._round_shape = tracer.declare("I", "ndp-round", ("senders",))
        n = len(network.field)
        # last_heard[i, j]: when host i last heard host j's beacon.
        self._last_heard = np.full((n, n), -np.inf)
        self.beacons_sent = 0
        #: Beacon cycles executed; read by the profiler.
        self.rounds = 0
        self.process = env.process(self._run())

    @property
    def liveness_horizon(self) -> float:
        """How stale a beacon may be before the link is considered down."""
        return self.miss_limit * self.beacon_interval

    def _run(self):
        while True:
            yield self.env.timeout(self.beacon_interval)
            self._beacon_cycle()
            if self._monitor is not None:
                self._monitor.check_ndp(self, self.env.now)

    def _beacon_cycle(self) -> None:
        network = self.network
        now = self.env.now
        connected = np.array(network.connected)
        senders = int(np.count_nonzero(connected))
        if not senders:
            return
        self.rounds += 1
        if self._tracer is not None:
            self._tracer.point(self._round_shape, None, None, senders)
        # heard[i, j]: connected host i is in range of connected sender j.
        heard = network.field.adjacency(now, network.tran_range) & connected
        heard &= connected[:, None]
        np.copyto(self._last_heard, now, where=heard)
        self.beacons_sent += senders
        if self.charge_power:
            model = network.model
            ledger = network.ledger
            ledger.charge_hosts(
                connected.nonzero()[0].tolist(), model.bc_send(self.hello_size), "beacon"
            )
            receptions = np.add.reduce(heard, axis=1)
            ledger.charge_each(model.bc_recv(self.hello_size) * receptions, "beacon")

    # -- queries -----------------------------------------------------------------

    def hears(self, host: int, peer: int) -> bool:
        """Whether ``host`` currently considers its link to ``peer`` up."""
        if host == peer:
            return True
        return self.env.now - self._last_heard[host, peer] <= self.liveness_horizon

    def live_neighbors(self, host: int) -> np.ndarray:
        """Peers whose beacons ``host`` heard recently enough."""
        fresh = self.env.now - self._last_heard[host] <= self.liveness_horizon
        fresh[host] = False
        return np.nonzero(fresh)[0]

    def forget(self, host: int) -> None:
        """Drop all link state of a host (used when it disconnects)."""
        self._last_heard[host, :] = -np.inf
        self._last_heard[:, host] = -np.inf
