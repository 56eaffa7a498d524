"""LRU cache with TTL-carrying entries.

All three schemes in the paper (conventional, COCA, GroCoCa) use
least-recently-used replacement as the base value ordering; GroCoCa's
cooperative replacement protocol additionally inspects the ``ReplaceCandidate``
least-valuable entries and their ``SingletTTL`` counters, which live here as
per-entry metadata.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import ItemsView, Iterator, List, Optional

__all__ = ["CacheEntry", "LRUCache"]


@dataclass
class CacheEntry:
    """One cached data item.

    ``expiry`` is the *absolute* simulation time at which the copy's TTL
    runs out (``inf`` for items that are never updated).  ``retrieve_time``
    is when the copy was fetched from the MSS (``t_r``), used for
    validation.  ``version`` tracks the data version for correctness checks.
    ``singlet_ttl`` is GroCoCa's drop counter for replica-less candidates.
    """

    item: int
    expiry: float = math.inf
    retrieve_time: float = 0.0
    version: int = 0
    last_access: float = 0.0
    singlet_ttl: int = field(default=0)

    def is_valid(self, now: float) -> bool:
        """Whether the copy's TTL has not yet expired."""
        return now <= self.expiry

    def remaining_ttl(self, now: float) -> float:
        return max(self.expiry - now, 0.0)


class LRUCache:
    """A fixed-capacity LRU cache of :class:`CacheEntry` objects."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()
        self.insertions = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, item: int) -> bool:
        return item in self._entries

    def __iter__(self) -> Iterator[int]:
        """Items from least to most recently used."""
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def get(self, item: int) -> Optional[CacheEntry]:
        """Look up without touching recency."""
        return self._entries.get(item)

    def touch(self, item: int, now: float) -> None:
        """Mark ``item`` most recently used at time ``now``."""
        entry = self._entries.get(item)
        if entry is None:
            raise KeyError(item)
        entry.last_access = now
        self._entries.move_to_end(item)

    def insert(self, entry: CacheEntry, now: float) -> Optional[CacheEntry]:
        """Insert (or refresh) an entry as MRU; evict LRU when over capacity.

        Returns the evicted entry, if any.  This is the plain LRU admission
        used by the conventional and COCA schemes; GroCoCa picks its own
        victim first and then calls :meth:`evict` / :meth:`insert`.
        """
        entry.last_access = now
        evicted = None
        if entry.item not in self._entries and self.is_full:
            evicted = self.evict_lru()
        self._entries[entry.item] = entry
        self._entries.move_to_end(entry.item)
        self.insertions += 1
        return evicted

    def evict(self, item: int) -> CacheEntry:
        """Remove a specific item."""
        entry = self._entries.pop(item, None)
        if entry is None:
            raise KeyError(item)
        self.evictions += 1
        return entry

    def evict_lru(self) -> CacheEntry:
        """Remove the least recently used entry."""
        if not self._entries:
            raise KeyError("evict_lru on empty cache")
        _item, entry = self._entries.popitem(last=False)
        self.evictions += 1
        return entry

    def lru_entries(self, count: int) -> List[CacheEntry]:
        """The ``count`` least valuable entries, least-valuable first."""
        result = []
        for item in self._entries:
            if len(result) >= count:
                break
            result.append(self._entries[item])
        return result

    def items(self) -> List[int]:
        """All cached item ids (LRU -> MRU order)."""
        return list(self._entries)

    def pairs(self) -> ItemsView[int, CacheEntry]:
        """A live read view of the ``(item, entry)`` pairs (LRU -> MRU)."""
        return self._entries.items()
