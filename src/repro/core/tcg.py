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

The ASM is maintained incrementally: per-pair dot products (one map per
client, holding only the clients that share an item with it) and
per-client squared norms make one access an update of the item's holders,
not an O(N · NData) recomputation.  So is Algorithm 3: a member is within
Δ, so each client keeps its *neighbours*, the located clients within Δ of
it.  A pair's distance changes only in ``record_location`` of one of its
clients, its similarity only in ``record_access`` of one of them, and every
pair's membership is current when a call starts.  So an access rechecks
only the client's neighbours, and a location report only the pairs that
enter or leave Δ (one that stays inside keeps its similarity, hence its
membership).
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
        if not 0.0 <= distance_threshold < math.inf:
            raise ValueError(
                f"distance threshold must be finite and >= 0, got {distance_threshold!r}"
            )
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
        # client -> {other: dot product}; a pair sharing no item has no key.
        self._dot: List[Dict[int, float]] = [{} for _ in range(n_clients)]
        self._sq_norms: List[float] = [0.0] * n_clients
        self.wadm = np.full((n_clients, n_clients), math.inf)
        self._has_location = np.zeros(n_clients, dtype=bool)
        self._x, self._y = np.zeros((2, n_clients))  # last reported positions
        # The located others within Δ of each client (symmetric).
        self._neighbours: List[Set[int]] = [set() for _ in range(n_clients)]
        self.member = np.zeros((n_clients, n_clients), dtype=bool)
        # What each client was last told its TCG is (for async announcements).
        self._announced: List[Set[int]] = [set() for _ in range(n_clients)]
        self.membership_changes = 0

    # -- Algorithm 1: location update ----------------------------------------------

    def record_location(self, client: int, position: Sequence[float]) -> None:
        """Fold a piggybacked location into the WADM; recheck pairs crossing Δ."""
        self._check_client(client)
        position = np.asarray(position, dtype=float)
        try:
            x, y = position.tolist()
            finite = math.isfinite(x) and math.isfinite(y)
        except (TypeError, ValueError):  # not two numbers
            finite = False
        if not finite:
            raise ValueError(f"position must be two finite numbers, got {position!r}")
        distances = np.hypot(self._x - x, self._y - y)
        row = self.wadm[client]
        if self._has_location.item(client) and self.omega < 1.0:
            # Every located pair of a located client has a distance to blend,
            # and (1 - ω)·∞ stays ∞ for the unlocated others and for itself.
            row *= 1.0 - self.omega
            distances *= self.omega
            row += distances
        else:  # a first report has no history; at ω = 1 nothing is blended
            np.copyto(row, distances, where=self._has_location)
            row[client] = math.inf  # never its own neighbour
        self.wadm[:, client] = row
        self._x[client], self._y[client] = x, y
        self._has_location[client] = True
        near = set((row <= self.distance_threshold).nonzero()[0].tolist())
        was = self._neighbours[client]
        if near != was:
            self._neighbours[client] = near
            entered, left = sorted(near - was), sorted(was - near)
            for other in entered:
                self._neighbours[other].add(client)
            for other in left:
                self._neighbours[other].discard(client)
            self._update_members(client, entered, left)
        if self._monitor is not None:
            self._monitor.check_tcg_row(self, client)

    # -- Algorithm 2: access pattern update ----------------------------------------

    def record_access(self, client: int, item: int, count: int = 1) -> None:
        """Fold accesses into the ASM (incremental cosine); recheck neighbours."""
        self._check_client(client)
        if not 0 <= item < self.n_data:
            raise ValueError(f"item must be in [0, {self.n_data}), got {item!r}")
        if count < 1:
            raise ValueError("count must be >= 1")
        # Only the holders share the item with the client, so only their
        # pairs move; a client's own pair gets both adds, as a dense matrix's
        # diagonal would.
        holders = self.access_counts.setdefault(item, {})
        dot = self._dot
        row = dot[client]
        for other, held in holders.items():
            row[other] = row.get(other, 0.0) + count * held
            theirs = dot[other]
            theirs[client] = theirs.get(client, 0.0) + count * held
        previous = holders.get(client, 0)
        self._sq_norms[client] += 2.0 * count * previous + count * count
        holders[client] = previous + count
        self._update_members(client, sorted(self._neighbours[client]))
        if self._monitor is not None:
            self._monitor.check_tcg_row(self, client)

    def _check_client(self, client: int) -> None:
        if not 0 <= client < self.n_clients:
            raise ValueError(f"client must be in [0, {self.n_clients}), got {client!r}")

    # -- similarity / distance queries ----------------------------------------------

    def access_count(self, client: int, item: int) -> int:
        """How often ``client`` accessed ``item`` (Algorithm 2's vector entry)."""
        self._check_client(client)
        return self.access_counts.get(item, {}).get(client, 0)

    def similarity(self, i: int, j: int) -> float:
        """Cosine similarity of two clients' access vectors (Equation 2)."""
        self._check_client(i)
        self._check_client(j)
        if i == j:
            return 1.0
        denominator = self._sq_norms[i] * self._sq_norms[j]
        if denominator <= 0.0:
            return 0.0
        return self._dot[i].get(j, 0.0) / math.sqrt(denominator)

    def similarity_row(self, client: int) -> np.ndarray:
        self._check_client(client)
        dot = np.zeros(self.n_clients)
        dot[list(self._dot[client])] = list(self._dot[client].values())
        sq_norms = np.array(self._sq_norms)
        denominator = sq_norms[client] * sq_norms
        row = np.zeros(self.n_clients)  # similarity with a client yet to access
        np.divide(dot, np.sqrt(denominator), out=row, where=denominator > 0.0)
        row[client] = 1.0
        return row

    def weighted_distance(self, i: int, j: int) -> float:
        self._check_client(i)
        self._check_client(j)
        return float(self.wadm[i, j])

    # -- Algorithm 3: membership checking ---------------------------------------------

    def _update_members(
        self, client: int, inside: Sequence[int], outside: Sequence[int] = ()
    ) -> None:
        """Membership of the pairs a contact can have moved: each of
        ``inside`` (within Δ) is a member iff alike, none of ``outside`` is."""
        member, dot, sq_norms = self.member, self._dot[client], self._sq_norms
        own = sq_norms[client]
        changed = 0
        for other in inside:
            # similarity_row's IEEE mul, sqrt and div on Python scalars: a
            # Python bool against an np.bool_ costs more than the whole test.
            product = own * sq_norms[other]
            if product > 0.0:
                similarity = dot.get(other, 0.0) / math.sqrt(product)
            else:
                similarity = 0.0
            alike = similarity >= self.similarity_threshold
            if alike != member.item(client, other):
                member[client, other] = member[other, client] = alike
                changed += 1
        for other in outside:
            if member.item(client, other):
                member[client, other] = member[other, client] = False
                changed += 1
        if changed:
            self.membership_changes += changed
            if self._tracer is not None:
                self._tracer.instant(
                    "tcg-change",
                    host=client,
                    changed=changed,
                    size=int(np.count_nonzero(member[client])),
                )

    # -- client-facing views --------------------------------------------------------------

    def tcg_of(self, client: int) -> Set[int]:
        """The current TCG of a client (live MSS view)."""
        self._check_client(client)
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
