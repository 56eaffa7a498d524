"""Tightly-coupled group discovery at the MSS (Section IV-A..C).

The MSS passively learns two things from every client contact:

* the client's location, piggybacked on requests, feeding the *weighted
  average distance matrix* (WADM) via an EWMA with weight ω (Algorithm 1);
* the client's data access counts, feeding the *access similarity matrix*
  (ASM) of cosine similarities (Algorithm 2).

Two clients are TCG members iff their weighted average distance is at most
Δ *and* their access similarity is at least δ (Algorithm 3); the relation
is symmetric by construction.  Membership changes are announced
asynchronously: they are queued per client and drained the next time that
client contacts the MSS.

The ASM is maintained incrementally: per-pair dot products and per-client
squared norms make one access an O(N) update instead of an O(N · NData)
recomputation.  So is Algorithm 3: ``_dist_ok`` (WADM ≤ Δ) and ``_sim_ok``
(similarity ≥ δ) cache the two halves of its test.  A pair's distance
changes only in ``record_location`` of one of its clients, its similarity
only in ``record_access`` of one of them, and each call rewrites the row
*and* the column of its own half: the other half is always current and is
never recomputed, and since every pair's membership is current when a call
starts, a call that leaves its own half unchanged skips the recheck.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

__all__ = ["TCGManager"]


class TCGManager:
    """WADM + ASM bookkeeping and TCG membership (Algorithms 1-3)."""

    def __init__(
        self,
        n_clients: int,
        n_data: int,
        distance_threshold: float,
        similarity_threshold: float,
        omega: float,
        monitor=None,
        tracer=None,
    ):
        if n_clients < 1 or n_data < 1:
            raise ValueError("need clients and data items")
        if distance_threshold < 0:
            raise ValueError("distance threshold must be >= 0")
        if not 0.0 <= similarity_threshold <= 1.0:
            raise ValueError("similarity threshold must be in [0, 1]")
        if not 0.0 <= omega <= 1.0:
            raise ValueError("omega must be in [0, 1]")
        self.n_clients = n_clients
        self.n_data = n_data
        self.distance_threshold = float(distance_threshold)
        self.similarity_threshold = float(similarity_threshold)
        self.omega = float(omega)
        #: Optional invariant oracle (duck-typed; see repro.check.monitor).
        self._monitor = monitor
        #: Optional span tracer (see repro.obs.tracer); the TCG manager has
        #: no env reference — the bound tracer supplies the sim time.
        self._tracer = tracer

        # item -> {client: count}; a client that never accessed it has no key.
        self.access_counts: Dict[int, Dict[int, int]] = {}
        self._dot = np.zeros((n_clients, n_clients))
        self._sq_norms = np.zeros(n_clients)
        self.wadm = np.full((n_clients, n_clients), math.inf)
        self._has_location = np.zeros(n_clients, dtype=bool)
        self._last_position = np.zeros((n_clients, 2))
        # Algorithm 3's test per pair, by halves (no distance or similarity yet).
        self._dist_ok = np.full((n_clients, n_clients), math.inf <= distance_threshold)
        self._sim_ok = np.full((n_clients, n_clients), 0.0 >= similarity_threshold)
        self.member = np.zeros((n_clients, n_clients), dtype=bool)
        # What each client was last told its TCG is (for async announcements).
        self._announced: List[Set[int]] = [set() for _ in range(n_clients)]
        self.membership_changes = 0

    # -- Algorithm 1: location update ----------------------------------------------

    def record_location(self, client: int, position: Sequence[float]) -> None:
        """Fold a piggybacked location into the WADM and recheck row."""
        self._check_client(client)
        position = np.asarray(position, dtype=float)
        if position.shape != (2,) or not all(map(math.isfinite, position)):
            raise ValueError(f"position must be two finite numbers, got {position!r}")
        deltas = self._last_position - position
        distances = np.hypot(deltas[:, 0], deltas[:, 1])
        row = self.wadm[client]
        with np.errstate(invalid="ignore"):
            blended = self.omega * distances + (1.0 - self.omega) * row
        # An infinite entry is a first contact: no history to blend with.
        new = np.where(np.isinf(row), distances, blended)
        np.copyto(row, new, where=self._has_location)
        row[client] = math.inf  # never its own neighbour
        self.wadm[:, client] = row
        self._last_position[client] = position
        first_report = not self._has_location[client]
        self._has_location[client] = True
        near = row <= self.distance_threshold
        if first_report or np.count_nonzero(near != self._dist_ok[client]):
            self._dist_ok[client] = self._dist_ok[:, client] = near
            self._recheck(client)
        if self._monitor is not None:
            self._monitor.check_tcg_row(self, client)

    # -- Algorithm 2: access pattern update ----------------------------------------

    def record_access(self, client: int, item: int, count: int = 1) -> None:
        """Fold accesses into the ASM (incremental cosine) and recheck row."""
        self._check_client(client)
        if not 0 <= item < self.n_data:
            raise ValueError(f"item must be in [0, {self.n_data}), got {item!r}")
        if count < 1:
            raise ValueError("count must be >= 1")
        # A client that never accessed the item would add +0.0, which moves
        # no entry of _dot (it is never -0.0): only the holders are touched.
        holders = self.access_counts.setdefault(item, {})
        if holders:
            others = list(holders)
            increment = [count * held for held in holders.values()]
            self._dot[client, others] += increment
            self._dot[others, client] += increment
        previous = holders.get(client, 0)
        self._sq_norms[client] += 2.0 * count * previous + count * count
        holders[client] = previous + count
        alike = self.similarity_row(client) >= self.similarity_threshold
        if np.count_nonzero(alike != self._sim_ok[client]):
            self._sim_ok[client] = self._sim_ok[:, client] = alike
            self._recheck(client)
        if self._monitor is not None:
            self._monitor.check_tcg_row(self, client)

    def _check_client(self, client: int) -> None:
        if not 0 <= client < self.n_clients:
            raise ValueError(f"client must be in [0, {self.n_clients}), got {client!r}")

    # -- similarity / distance queries ----------------------------------------------

    def access_count(self, client: int, item: int) -> int:
        """How often ``client`` accessed ``item`` (Algorithm 2's vector entry)."""
        return self.access_counts.get(item, {}).get(client, 0)

    def similarity(self, i: int, j: int) -> float:
        """Cosine similarity of two clients' access vectors (Equation 2)."""
        if i == j:
            return 1.0
        denominator = self._sq_norms[i] * self._sq_norms[j]
        if denominator <= 0.0:
            return 0.0
        return float(self._dot[i, j] / math.sqrt(denominator))

    def similarity_row(self, client: int) -> np.ndarray:
        denominator = self._sq_norms[client] * self._sq_norms
        row = np.zeros(self.n_clients)  # similarity with a client yet to access
        np.divide(
            self._dot[client], np.sqrt(denominator), out=row, where=denominator > 0.0
        )
        row[client] = 1.0
        return row

    def weighted_distance(self, i: int, j: int) -> float:
        return float(self.wadm[i, j])

    # -- Algorithm 3: membership checking ---------------------------------------------

    def _recheck(self, client: int) -> None:
        eligible = self._dist_ok[client] & self._sim_ok[client] & self._has_location
        eligible[client] = False
        if not self._has_location[client]:
            eligible[:] = False
        changed = int(np.count_nonzero(eligible != self.member[client]))
        if changed:
            self.member[client] = eligible
            self.member[:, client] = eligible
            self.membership_changes += changed
            if self._tracer is not None:
                self._tracer.instant(
                    "tcg-change",
                    host=client,
                    changed=changed,
                    size=int(eligible.sum()),
                )

    # -- client-facing views --------------------------------------------------------------

    def tcg_of(self, client: int) -> Set[int]:
        """The current TCG of a client (live MSS view)."""
        return set(self.member[client].nonzero()[0].tolist())

    def drain_changes(self, client: int) -> Tuple[Set[int], Set[int]]:
        """Membership delta since this client was last told (async view change).

        Returns (added, removed) and marks the current view as announced.
        """
        current = self.tcg_of(client)
        previous = self._announced[client]
        added = current - previous
        removed = previous - current
        self._announced[client] = current
        return added, removed

    def full_view(self, client: int) -> Set[int]:
        """Authoritative membership for a reconnection sync (marks announced)."""
        current = self.tcg_of(client)
        self._announced[client] = set(current)
        return current
