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
recomputation.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Set, Tuple

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

        self.access_counts = np.zeros((n_clients, n_data), dtype=np.int64)
        self._dot = np.zeros((n_clients, n_clients))
        self._sq_norms = np.zeros(n_clients)
        self.wadm = np.full((n_clients, n_clients), math.inf)
        self._has_location = np.zeros(n_clients, dtype=bool)
        self._last_position = np.zeros((n_clients, 2))
        self.member = np.zeros((n_clients, n_clients), dtype=bool)
        # What each client was last told its TCG is (for async announcements).
        self._announced: List[Set[int]] = [set() for _ in range(n_clients)]
        self.membership_changes = 0

    # -- Algorithm 1: location update ----------------------------------------------

    def record_location(self, client: int, position: Sequence[float]) -> None:
        """Fold a piggybacked location into the WADM and recheck row."""
        position = np.asarray(position, dtype=float)
        others = self._has_location.copy()
        others[client] = False
        if others.any():
            deltas = self._last_position[others] - position
            distances = np.hypot(deltas[:, 0], deltas[:, 1])
            old = self.wadm[client, others]
            first_time = np.isinf(old)
            with np.errstate(invalid="ignore"):
                blended = self.omega * distances + (1.0 - self.omega) * old
            new = np.where(first_time, distances, blended)
            self.wadm[client, others] = new
            self.wadm[others, client] = new
        self._last_position[client] = position
        self._has_location[client] = True
        self._recheck_row(client)

    # -- Algorithm 2: access pattern update ----------------------------------------

    def record_access(self, client: int, item: int, count: int = 1) -> None:
        """Fold accesses into the ASM (incremental cosine) and recheck row."""
        if count < 1:
            raise ValueError("count must be >= 1")
        column = self.access_counts[:, item]
        self._dot[client, :] += count * column
        self._dot[:, client] += count * column
        self._sq_norms[client] += (
            2.0 * count * self.access_counts[client, item] + count * count
        )
        self.access_counts[client, item] += count
        self._recheck_row(client)

    # -- similarity / distance queries ----------------------------------------------

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
        with np.errstate(divide="ignore", invalid="ignore"):
            row = np.where(
                denominator > 0.0,
                self._dot[client] / np.sqrt(denominator),
                0.0,
            )
        row[client] = 1.0
        return row

    def weighted_distance(self, i: int, j: int) -> float:
        return float(self.wadm[i, j])

    # -- Algorithm 3: membership checking ---------------------------------------------

    def _recheck_row(self, client: int) -> None:
        eligible = (
            (self.wadm[client] <= self.distance_threshold)
            & (self.similarity_row(client) >= self.similarity_threshold)
            & self._has_location
        )
        eligible[client] = False
        if not self._has_location[client]:
            eligible[:] = False
        changed = eligible != self.member[client]
        if changed.any():
            self.member[client] = eligible
            self.member[:, client] = eligible
            self.membership_changes += int(changed.sum())
            if self._tracer is not None:
                self._tracer.instant(
                    "tcg-change",
                    host=client,
                    changed=int(changed.sum()),
                    size=int(eligible.sum()),
                )
        if self._monitor is not None:
            self._monitor.check_tcg_row(self, client)

    # -- client-facing views --------------------------------------------------------------

    def tcg_of(self, client: int) -> Set[int]:
        """The current TCG of a client (live MSS view)."""
        return set(int(j) for j in np.nonzero(self.member[client])[0])

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
