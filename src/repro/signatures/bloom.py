"""Bloom filters over item identifiers (Section IV-D.1, ref [28]).

All hosts must hash identically for signatures to be comparable, so the k
hash functions live in a shared :class:`SignatureScheme`: a family of
universal hashes ``h_i(x) = ((a_i x + b_i) mod p) mod σ`` with a large prime
``p`` and coefficients drawn once from a seeded stream.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

__all__ = ["BloomFilter", "SignatureScheme"]

_PRIME = (1 << 61) - 1  # Mersenne prime > any item id we hash


class SignatureScheme:
    """The shared (σ, k) configuration and hash family."""

    def __init__(self, rng: np.random.Generator, size_bits: int, k: int):
        if size_bits < 1:
            raise ValueError("size_bits must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.size_bits = int(size_bits)
        self.k = int(k)
        a = rng.integers(1, _PRIME, size=self.k, dtype=np.int64)
        b = rng.integers(0, _PRIME, size=self.k, dtype=np.int64)
        # Python ints: a·x + b may pass 2**63, and int arithmetic is exact.
        self._coefficients = tuple(zip(a.tolist(), b.tolist()))
        # positions() is a pure function of the item and the (fixed) hash
        # family, and the item universe is small (n_data), so the hot
        # signature paths memoise it.
        self._positions: dict = {}

    def positions(self, item: int) -> Tuple[int, ...]:
        """The k bit positions of ``item``'s data signature (memoised)."""
        item = int(item)
        cached = self._positions.get(item)
        if cached is None:
            size = self.size_bits
            cached = tuple(
                (a * item + b) % _PRIME % size for a, b in self._coefficients
            )
            self._positions[item] = cached
        return cached

    def make_filter(self) -> "BloomFilter":
        return BloomFilter(self)

    def data_signature(self, item: int) -> "BloomFilter":
        """A Bloom filter containing exactly one item."""
        signature = BloomFilter(self)
        signature.add(item)
        return signature

    # -- analytics (Section IV-D.1) ------------------------------------------

    def false_positive_probability(self, n_items: int) -> float:
        """P(false positive) after inserting ``n_items`` elements."""
        if n_items < 0:
            raise ValueError("n_items must be >= 0")
        zero_stays = (1.0 - 1.0 / self.size_bits) ** (n_items * self.k)
        return (1.0 - zero_stays) ** self.k

    @staticmethod
    def optimal_k(size_bits: int, n_items: int) -> int:
        """The k minimising false positives: ``(ln 2) σ / n``."""
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        return max(1, round(math.log(2.0) * size_bits / n_items))


class BloomFilter:
    """A σ-bit Bloom filter over a shared scheme."""

    def __init__(self, scheme: SignatureScheme):
        self.scheme = scheme
        self.bits = np.zeros(scheme.size_bits, dtype=bool)

    def add(self, item: int) -> None:
        for position in self.scheme.positions(item):
            self.bits[position] = True

    def add_all(self, items: Iterable[int]) -> None:
        for item in items:
            self.add(item)

    def might_contain(self, item: int) -> bool:
        """True when all of the item's bits are set (possible member)."""
        return all(self.bits[p] for p in self.scheme.positions(item))

    def superimpose(self, other: "BloomFilter") -> None:
        """Bitwise OR another signature into this one (cache/peer signatures)."""
        if other.scheme is not self.scheme:
            raise ValueError("cannot combine signatures from different schemes")
        self.bits |= other.bits

    def covers(self, other: "BloomFilter") -> bool:
        """Whether this signature has every bit of ``other`` set.

        This is the paper's filtering test: ``search AND peer == search``.
        """
        if other.scheme is not self.scheme:
            raise ValueError("cannot compare signatures from different schemes")
        return bool(np.all(self.bits[other.bits]))

    @property
    def size_bytes(self) -> int:
        """Uncompressed wire size."""
        return (self.scheme.size_bits + 7) // 8

    def copy(self) -> "BloomFilter":
        clone = BloomFilter(self.scheme)
        clone.bits = self.bits.copy()
        return clone
