"""Counting Bloom filter for a client's own cache (Section IV-D.3).

A client regenerates its cache signature after every insertion/eviction; to
make that cheap it maintains σ counters of π_c bits each.  Increments on a
saturated counter are discarded (the counter sticks at ``2^π_c − 1``);
a decrement on a counter that is already zero signals an inconsistency and
the whole vector must be reset and rebuilt from the cache content to avoid
false negatives.

A cache of ε items sets at most ε·k of the σ counters, so only the non-zero
ones are stored (position → count) and no operation costs O(σ).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.signatures.bloom import BloomFilter, SignatureScheme

__all__ = ["CountingBloomFilter"]


class CountingBloomFilter:
    """σ saturating counters of π_c bits backing a cache signature."""

    def __init__(self, scheme: SignatureScheme, counter_bits: int = 4):
        if counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        self.scheme = scheme
        self.counter_bits = int(counter_bits)
        self.max_value = (1 << self.counter_bits) - 1
        self.counters: Dict[int, int] = {}  # position -> count, zeros absent
        self.rebuilds = 0

    def add(self, item: int) -> None:
        """Record an insertion into the cache."""
        for position in self.scheme.positions(item):
            value = self.counters.get(position, 0)
            if value < self.max_value:
                self.counters[position] = value + 1

    def remove(self, item: int) -> bool:
        """Record an eviction.  Returns False when a rebuild is required.

        A zero counter cannot be decremented; per the paper the client must
        then reset and reconstruct the vector (call :meth:`rebuild`).  An
        item whose k positions collide decrements that counter once per
        occurrence, so it needs that much headroom.
        """
        counters = self.counters
        positions = self.scheme.positions(item)
        if any(counters.get(p, 0) < positions.count(p) for p in positions):
            return False
        for position in positions:
            value = counters[position] - 1
            if value:
                counters[position] = value
            else:
                del counters[position]
        return True

    def rebuild(self, items: Iterable[int]) -> None:
        """Reset and reconstruct from the full cache content."""
        self.counters.clear()
        for item in items:
            self.add(item)
        self.rebuilds += 1

    def positions(self) -> List[int]:
        """The cache signature as the ascending positions of its set bits."""
        return sorted(self.counters)

    def signature(self) -> BloomFilter:
        """The cache signature: bit i set iff counter i is non-zero."""
        bloom = BloomFilter(self.scheme)
        bloom.bits[self.positions()] = True
        return bloom

    def might_contain(self, item: int) -> bool:
        return all(p in self.counters for p in self.scheme.positions(item))
