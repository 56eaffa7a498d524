"""Cache-replacement policies.

A replacement policy picks the victim a full cache evicts to admit one
new entry, and optionally maintains auxiliary per-item state through the
client's note hooks (``note_access`` / ``note_insert`` /
``note_request`` / ``note_remote_request``).  Every policy is
deterministic: victim selection walks the cache in LRU order and only a
*strictly* better score displaces the running choice, so ties always
break toward the least recently used entry and identical runs replay bit
for bit.

``lru`` and ``grococa`` are the paper's two rules (Section VI baseline and
Section IV-E).  The other variants adapt the replacement families surveyed by
Joy & Jacob and Wang & Kulkarni's popularity ranking to the TTL-carrying
P2P cache: ``lru-min`` prefers the candidate closest to expiry,
``greedy-dual`` keeps an inflation-based H value seeded from the
remaining TTL, ``popularity-rank`` evicts the item with the least
observed demand (own requests plus overheard search floods).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.lru import CacheEntry, LRUCache
from repro.signatures.bloom import SignatureScheme
from repro.signatures.peer import PeerSignature

__all__ = [
    "GreedyDualReplacement",
    "GroCoCaReplacement",
    "LRUMinReplacement",
    "LRUReplacement",
    "PopularityRankReplacement",
    "ReplacementPolicy",
]

#: Effective cost of a never-expiring entry for the TTL-aware policies;
#: large enough to outrank any finite remaining TTL, finite so arithmetic
#: with the GreedyDual inflation term stays well defined.
_IMMORTAL_COST = 1e18


class ReplacementPolicy:
    """Base class: victim selection plus optional bookkeeping hooks.

    All hooks default to no-ops so a policy pays only for the hooks it
    overrides.  ``observes_requests`` gates the per-request hooks in the
    client — a policy that does not set it never sees
    ``note_request``/``note_remote_request`` calls at all.

    ``enabled`` is ``False`` only for the plain-LRU baseline; the
    ablation tests read it.
    """

    #: Whether the client should feed request observations to this policy.
    observes_requests: bool = False
    enabled: bool = True

    def __init__(self, cache: LRUCache) -> None:
        self.cache = cache
        self.evictions = 0

    def new_entry_ttl(self) -> int:
        """Initial SingletTTL for a freshly inserted entry (GroCoCa only)."""
        return 0

    def note_access(self, entry: CacheEntry, now: float) -> None:
        """A local (or TCG-serving) access touched ``entry``."""

    def note_insert(self, entry: CacheEntry, now: float) -> None:
        """``entry`` was just inserted (or refreshed in place)."""

    def note_request(self, item: int) -> None:
        """The local host requested ``item`` (cached or not)."""

    def note_remote_request(self, item: int) -> None:
        """A search flood for ``item`` was overheard from a peer."""

    def select_victim(self, now: float) -> Optional[CacheEntry]:
        """The entry to evict for one insertion; None when empty."""
        raise NotImplementedError

    def eviction_count(self) -> int:
        """Victims chosen so far."""
        return self.evictions


class LRUReplacement(ReplacementPolicy):
    """Plain LRU: evict the least recently used entry (LC/CC baseline)."""

    enabled = False

    def select_victim(self, now: float) -> Optional[CacheEntry]:
        if not len(self.cache):
            return None
        self.evictions += 1
        return self.cache.lru_entries(1)[0]


class GroCoCaReplacement(ReplacementPolicy):
    """Section IV-E cooperative replacement against the TCG peer signature.

    The protocol satisfies the paper's three desirable properties:

    1. the most valuable items stay in the local cache — only the
       ``ReplaceCandidate`` least-recently-used entries are eviction
       candidates;
    2. an item unaccessed for a long time is eventually replaced — the
       ``SingletTTL`` counter drops a replica-less item after
       ``ReplaceDelay`` spared replacements;
    3. replicated items go first — a candidate whose data signature is
       covered by the peer signature is likely duplicated in the TCG and
       is evicted in preference, enlarging the aggregate cache.

    The victim search walks candidates from least valuable upward,
    evicting the first likely-replica.  When the least valuable entry is
    spared this way its SingletTTL is decremented; at zero the entry is
    simply dropped.  A TCG (or local) access resets the counter to
    ``ReplaceDelay``.
    """

    def __init__(
        self,
        cache: LRUCache,
        scheme: SignatureScheme,
        peer_signature: PeerSignature,
        replace_candidate: int,
        replace_delay: int,
    ) -> None:
        super().__init__(cache)
        if replace_candidate < 1:
            raise ValueError("replace_candidate must be >= 1")
        if replace_delay < 1:
            raise ValueError("replace_delay must be >= 1")
        self.scheme = scheme
        self.peer_signature = peer_signature
        self.replace_candidate = int(replace_candidate)
        self.replace_delay = int(replace_delay)
        self.replica_evictions = 0
        self.lru_evictions = 0
        self.singlet_drops = 0

    def new_entry_ttl(self) -> int:
        return self.replace_delay

    def note_access(self, entry: CacheEntry, now: float) -> None:
        entry.singlet_ttl = self.replace_delay

    def select_victim(self, now: float) -> Optional[CacheEntry]:
        if not len(self.cache):
            return None
        candidates = self.cache.lru_entries(self.replace_candidate)
        least = candidates[0]
        for entry in candidates:
            positions = self.scheme.positions(entry.item)
            if self.peer_signature.matches_positions(positions):
                if entry is least:
                    self.replica_evictions += 1
                    return least
                # The least valuable item is spared because it has no
                # replica: age it, and drop it outright once stale.
                least.singlet_ttl -= 1
                if least.singlet_ttl <= 0:
                    self.singlet_drops += 1
                    return least
                self.replica_evictions += 1
                return entry
        self.lru_evictions += 1
        return least

    def eviction_count(self) -> int:
        return self.replica_evictions + self.lru_evictions + self.singlet_drops


class LRUMinReplacement(ReplacementPolicy):
    """TTL-adapted LRU-MIN: evict the candidate closest to expiry.

    LRU-MIN refines LRU by preferring the least *valuable* entry within
    the near-LRU region instead of blind recency.  The original ranks by
    object size; with the paper's uniform item sizes the scarce resource
    is freshness, so this adaptation ranks the ``candidates``
    least-recently-used entries by absolute expiry time and evicts the
    one that will die soonest.  With no updates configured every expiry
    is infinite and the policy degenerates to plain LRU.
    """

    def __init__(self, cache: LRUCache, candidates: int) -> None:
        super().__init__(cache)
        if candidates < 1:
            raise ValueError("candidates must be >= 1")
        self.candidates = int(candidates)

    def select_victim(self, now: float) -> Optional[CacheEntry]:
        if not len(self.cache):
            return None
        window = self.cache.lru_entries(self.candidates)
        victim = window[0]
        for entry in window[1:]:
            if entry.expiry < victim.expiry:
                victim = entry
        self.evictions += 1
        return victim


class GreedyDualReplacement(ReplacementPolicy):
    """TTL-aware GreedyDual: H = inflation + remaining TTL.

    Each cached item carries a retention value ``H`` set on insert and
    restored on every hit to ``L + cost``, where the cost is the entry's
    remaining TTL (capped for never-expiring items) and ``L`` is the
    global inflation.  Eviction takes the minimum-H entry and raises
    ``L`` to it, so long-unreferenced items lose their head start no
    matter how fresh they once were — the classic aging that makes
    GreedyDual scan-resistant without timestamps.
    """

    def __init__(self, cache: LRUCache) -> None:
        super().__init__(cache)
        self._h: Dict[int, float] = {}
        self._inflation = 0.0

    def _cost(self, entry: CacheEntry, now: float) -> float:
        remaining = entry.remaining_ttl(now)
        if remaining >= _IMMORTAL_COST:
            return _IMMORTAL_COST
        return remaining

    def note_insert(self, entry: CacheEntry, now: float) -> None:
        self._h[entry.item] = self._inflation + self._cost(entry, now)

    def note_access(self, entry: CacheEntry, now: float) -> None:
        self._h[entry.item] = self._inflation + self._cost(entry, now)

    def select_victim(self, now: float) -> Optional[CacheEntry]:
        if not len(self.cache):
            return None
        victim: Optional[CacheEntry] = None
        best = float("inf")
        for entry in self.cache.lru_entries(len(self.cache)):
            value = self._h.get(entry.item, self._inflation)
            if value < best:
                best = value
                victim = entry
        self._inflation = best
        if victim is not None:
            self._h.pop(victim.item, None)
        self.evictions += 1
        return victim


class PopularityRankReplacement(ReplacementPolicy):
    """Popularity-ranking cooperative replacement (Wang & Kulkarni).

    Ranks cached items by observed demand and evicts the least popular.
    Demand is counted from two free signals: the host's own accesses and
    the search floods it overhears for other hosts (``observes_requests``
    turns the client's request hooks on).  Counts persist across
    evictions, so a popular item that cycles out re-enters with its
    reputation intact; the table is bounded by the database size.
    """

    observes_requests = True

    def __init__(self, cache: LRUCache) -> None:
        super().__init__(cache)
        self._counts: Dict[int, int] = {}

    def note_request(self, item: int) -> None:
        self._counts[item] = self._counts.get(item, 0) + 1

    def note_remote_request(self, item: int) -> None:
        self._counts[item] = self._counts.get(item, 0) + 1

    def popularity(self, item: int) -> int:
        """Observed demand for ``item`` (own + overheard requests)."""
        return self._counts.get(item, 0)

    def select_victim(self, now: float) -> Optional[CacheEntry]:
        if not len(self.cache):
            return None
        victim: Optional[CacheEntry] = None
        best = -1
        for entry in self.cache.lru_entries(len(self.cache)):
            count = self._counts.get(entry.item, 0)
            if victim is None or count < best:
                best = count
                victim = entry
        self.evictions += 1
        return victim
