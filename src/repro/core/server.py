"""The mobile support station (MSS).

The MSS serves data requests over the shared downlink, validates cached
copies (Section IV-F), learns client locations and access patterns from the
piggybacked information on every contact (Section IV-B), runs TCG discovery
for GroCoCa, and piggybacks pending TCG membership changes on its replies
(asynchronous group view change).

The MSS itself computes instantaneously; all latency comes from the
uplink/downlink channels, whose FCFS resources are held by the *client*
processes (this serialises requests exactly like the paper's infinite
server queue).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Set, Tuple

from repro.core.config import SimulationConfig
from repro.core.tcg import TCGManager
from repro.data.server_db import ServerDatabase
from repro.sim.kernel import Environment

__all__ = ["MobileSupportStation", "ServerReply", "ValidationReply"]


@dataclass
class ServerReply:
    """What the MSS returns for a data request."""

    item: int
    version: int
    expiry: float
    retrieve_time: float
    added: Set[int] = field(default_factory=set)
    removed: Set[int] = field(default_factory=set)

    @property
    def membership_changes(self) -> int:
        return len(self.added) + len(self.removed)


@dataclass
class ValidationReply:
    """What the MSS returns for a validation request."""

    refreshed: bool  # True: a fresh copy ships; False: copy approved
    version: int
    expiry: float
    retrieve_time: float
    added: Set[int] = field(default_factory=set)
    removed: Set[int] = field(default_factory=set)

    @property
    def membership_changes(self) -> int:
        return len(self.added) + len(self.removed)


class MobileSupportStation:
    """Request handling + passive pattern collection + TCG discovery."""

    def __init__(
        self,
        env: Environment,
        config: SimulationConfig,
        database: ServerDatabase,
        tcg: Optional[TCGManager] = None,
        monitor=None,
        tracer=None,
    ):
        self.env = env
        self.config = config
        self.database = database
        self.tcg = tcg  # None for LC/CC
        #: Optional invariant oracle (duck-typed; see repro.check.monitor).
        self._monitor = monitor
        #: Optional span tracer (see repro.obs.tracer).
        self._tracer = tracer
        if tracer is not None:
            self._serve_shape = tracer.declare("I", "mss-serve", ("kind", "item"))
        self.data_requests = 0
        self.validations = 0
        self.explicit_updates = 0
        self.membership_syncs = 0

    # -- passive collection ------------------------------------------------------

    def _learn(
        self,
        client: int,
        location: Optional[Sequence[float]],
        items: Sequence[int] = (),
    ) -> None:
        if self.tcg is None:
            return
        if location is not None:
            self.tcg.record_location(client, location)
        for item in items:
            self.tcg.record_access(client, item)

    def _drain_changes(self, client: int) -> Tuple[Set[int], Set[int]]:
        if self.tcg is None:
            return set(), set()
        return self.tcg.drain_changes(client)

    # -- request handlers ---------------------------------------------------------

    def handle_data_request(
        self, client: int, item: int, location: Sequence[float]
    ) -> ServerReply:
        """A cache-miss pull of ``item``; returns the copy and its TTL."""
        self.data_requests += 1
        if self._tracer is not None:
            self._tracer.point(self._serve_shape, client, None, "data", item)
        self._learn(client, location, [item])
        added, removed = self._drain_changes(client)
        now = self.env.now
        reply = ServerReply(
            item=item,
            version=self.database.version[item],
            expiry=now + self.database.assign_ttl(item, now),
            retrieve_time=now,
            added=added,
            removed=removed,
        )
        if self._monitor is not None:
            self._monitor.check_server_reply(
                client, reply.expiry, reply.retrieve_time, added, removed, now
            )
        return reply

    def handle_validation(
        self,
        client: int,
        item: int,
        retrieve_time: float,
        location: Sequence[float],
    ) -> ValidationReply:
        """Section IV-F: refresh a stale copy or approve its validity."""
        self.validations += 1
        if self._tracer is not None:
            self._tracer.point(self._serve_shape, client, None, "validate", item)
        self._learn(client, location, [item])
        added, removed = self._drain_changes(client)
        now = self.env.now
        refreshed = self.database.updated_since(item, retrieve_time)
        reply = ValidationReply(
            refreshed=refreshed,
            version=self.database.version[item],
            expiry=now + self.database.assign_ttl(item, now),
            retrieve_time=now if refreshed else retrieve_time,
            added=added,
            removed=removed,
        )
        if self._monitor is not None:
            self._monitor.check_server_reply(
                client, reply.expiry, reply.retrieve_time, added, removed, now
            )
        return reply

    def handle_explicit_update(
        self,
        client: int,
        location: Sequence[float],
        peer_accessed_items: Sequence[int],
    ) -> Tuple[Set[int], Set[int]]:
        """Idle-period report: location + a portion of peer-access history."""
        self.explicit_updates += 1
        self._learn(client, location, peer_accessed_items)
        return self._drain_changes(client)

    def handle_membership_sync(self, client: int) -> Set[int]:
        """Authoritative TCG view for a reconnecting client."""
        self.membership_syncs += 1
        if self.tcg is None:
            return set()
        return self.tcg.full_view(client)
