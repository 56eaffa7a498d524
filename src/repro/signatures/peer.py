"""Peer-signature counter vector with dynamic counter width (Section IV-D.4).

A GroCoCa client aggregates the cache signatures of its TCG members into a
vector of σ counters of π_p bits.  π_p is *dynamic*: it starts at zero while
the TCG is empty, grows when a counter would overflow, and contracts when
every counter fits in one fewer bit.  Counters are updated by full signature
collections (SigRequest/SigReply) and by the insertion/eviction bit-position
lists piggybacked on broadcast requests.

Members caching ε items each set at most ε·k of the σ counters, so only the
non-zero ones are stored (position → count) and no update costs O(σ).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.signatures.bloom import BloomFilter, SignatureScheme

__all__ = ["PeerSignature"]


class PeerSignature:
    """Aggregated TCG cache signatures with adaptive counter width."""

    def __init__(self, scheme: SignatureScheme):
        self.scheme = scheme
        self.counters: Dict[int, int] = {}  # position -> count, zeros absent
        self.counter_bits = 0  # π_p; zero while no signatures are merged
        self.expansions = 0
        self.contractions = 0
        # Cached max(counters), maintained incrementally by the update
        # paths so the per-broadcast piggyback deltas skip the reduction;
        # < 0 marks it stale inside apply_update, whose closing _fit_width
        # recomputes it, so it is exact whenever a call starts.
        self._peak = 0

    # -- width management -------------------------------------------------------

    def _fit_width(self) -> None:
        if self._peak < 0:
            self._peak = max(self.counters.values(), default=0)
        peak = self._peak
        needed = peak.bit_length() if peak > 0 else 0
        if needed > self.counter_bits:
            self.expansions += needed - self.counter_bits
            self.counter_bits = needed
        else:
            # Contract while all values fall below 2^(π_p − 1).
            while self.counter_bits > needed:
                self.contractions += 1
                self.counter_bits -= 1

    @property
    def memory_bits(self) -> int:
        """Modelled footprint of the vector: σ · π_p."""
        return self.scheme.size_bits * self.counter_bits

    # -- updates ------------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything (member departure / reconnection resync)."""
        self.counters.clear()
        self.counter_bits = 0
        self._peak = 0

    def merge_positions(self, positions: Sequence[int]) -> None:
        """Add one member's full cache signature: its set positions.

        Each distinct position counts once, however often it is listed.
        """
        counters = self.counters
        peak = self._peak
        for position in dict.fromkeys(np.asarray(positions, dtype=np.int64).tolist()):
            value = counters.get(position, 0) + 1
            counters[position] = value
            if value > peak:
                peak = value
        self._peak = peak
        self._fit_width()

    def merge_signature(self, signature: BloomFilter) -> None:
        """:meth:`merge_positions` for a dense signature."""
        self._check_scheme(signature)
        self.merge_positions(np.flatnonzero(signature.bits))

    def apply_update(
        self, insertions: Sequence[int], evictions: Sequence[int]
    ) -> None:
        """Apply a piggybacked insertion/eviction bit-position delta."""
        counters = self.counters
        peak = self._peak
        for position in insertions:
            value = counters.get(position, 0) + 1
            counters[position] = value
            if peak >= 0 and value > peak:
                peak = value
        for position in evictions:
            value = counters.get(position, 0)
            if value:
                if value > 1:
                    counters[position] = value - 1
                else:
                    del counters[position]
                if value == peak:
                    # The decremented counter may have been the only one
                    # at the peak; a full recompute settles it.
                    peak = -1
        self._peak = peak
        self._fit_width()

    # -- queries ---------------------------------------------------------------------

    def matches_positions(self, positions: Iterable[int]) -> bool:
        """AND-filter: every given bit position is non-zero."""
        return all(p in self.counters for p in positions)

    def covers(self, signature: BloomFilter) -> bool:
        """Search-signature test: peers likely cache all of ``signature``."""
        self._check_scheme(signature)
        return bool(np.all(self.bloom().bits[signature.bits]))

    def bloom(self) -> BloomFilter:
        """Collapse the counters to a plain signature."""
        result = BloomFilter(self.scheme)
        result.bits[list(self.counters)] = True
        return result

    def _check_scheme(self, signature: BloomFilter) -> None:
        if signature.scheme is not self.scheme:
            raise ValueError("signature from a different scheme")
