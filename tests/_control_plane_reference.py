"""The dense GroCoCa control plane, kept as a test reference.

``src/`` handles a cache signature as the positions of its set bits, keeps
only the non-zero counters of the own and the peer vectors and of the MSS
access counts, sizes a compressed SigReply by counting its VLFL symbols,
and rechecks TCG membership only over each client's Δ-neighbours; these
are the designs they replaced: every signature a σ-vector, the VLFL
symbols built one gap at a time, a SigReply really encoded and decoded,
and Algorithm 3 recomputed from the WADM
and a fresh similarity row on every MSS contact (from ``eee341b``), and the
σ-long peer vector and the ``(N, n_data)`` access-count matrix (from
``43589d9``).  Nothing in ``src/`` uses them:
``tests/test_control_plane_differential.py`` drives both sides through the
same call sequences and requires equal answers, and
``benchmarks/test_micro_control_plane.py`` times them side by side.

The peer vector is a whole copy; the TCG reference spells out only the
methods that changed, and membership handling and the WADM / similarity
arithmetic are the same code on both sides and are inherited.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.signatures_proto import SignatureAgent
from repro.core.tcg import TCGManager
from repro.signatures.bloom import BloomFilter, SignatureScheme
from repro.signatures.vlfl import CompressedSignature, compression_plan

__all__ = [
    "DenseCountingBloomFilter",
    "DensePeerSignature",
    "DenseSignatureAgent",
    "RecomputingTCGManager",
    "dense_vlfl_decode",
    "loop_vlfl_encode",
]


class DenseCountingBloomFilter:
    """σ saturating counters of π_c bits backing a cache signature."""

    def __init__(self, scheme: SignatureScheme, counter_bits: int = 4):
        if counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")
        self.scheme = scheme
        self.counter_bits = int(counter_bits)
        self.max_value = (1 << self.counter_bits) - 1
        self.counters = np.zeros(scheme.size_bits, dtype=np.int64)
        self.rebuilds = 0

    def add(self, item: int) -> None:
        for position in self.scheme.positions(item):
            if self.counters[position] < self.max_value:
                self.counters[position] += 1

    def remove(self, item: int) -> bool:
        positions = self.scheme.positions(item)
        if any(self.counters[p] == 0 for p in positions):
            return False
        for position in positions:
            self.counters[position] -= 1
        return True

    def rebuild(self, items: Iterable[int]) -> None:
        self.counters[:] = 0
        for item in items:
            self.add(item)
        self.rebuilds += 1

    def signature(self) -> BloomFilter:
        bloom = BloomFilter(self.scheme)
        bloom.bits = self.counters > 0
        return bloom

    def might_contain(self, item: int) -> bool:
        return all(self.counters[p] > 0 for p in self.scheme.positions(item))


class DensePeerSignature:
    """σ counters of π_p bits; merges a σ-vector and rescans for the peak."""

    def __init__(self, scheme: SignatureScheme):
        self.scheme = scheme
        self.counters = np.zeros(scheme.size_bits, dtype=np.int64)
        self.counter_bits = 0
        self.expansions = 0
        self.contractions = 0
        self._peak = 0

    def _fit_width(self) -> None:
        if self._peak < 0:
            self._peak = int(self.counters.max()) if self.counters.size else 0
        peak = self._peak
        needed = peak.bit_length() if peak > 0 else 0
        if needed > self.counter_bits:
            self.expansions += needed - self.counter_bits
            self.counter_bits = needed
        else:
            while self.counter_bits > needed:
                self.contractions += 1
                self.counter_bits -= 1

    @property
    def memory_bits(self) -> int:
        return self.scheme.size_bits * self.counter_bits

    def reset(self) -> None:
        self.counters[:] = 0
        self.counter_bits = 0
        self._peak = 0

    def merge_positions(self, positions: np.ndarray) -> None:
        if len(positions):
            touched = self.counters[positions] + 1
            self.counters[positions] = touched
            self._peak = max(self._peak, int(touched.max()))
        self._fit_width()

    def merge_signature(self, signature: BloomFilter) -> None:
        if signature.scheme is not self.scheme:
            raise ValueError("signature from a different scheme")
        self.counters += signature.bits
        self._peak = -1  # whole-vector add: recompute lazily
        self._fit_width()

    def apply_update(
        self, insertions: Sequence[int], evictions: Sequence[int]
    ) -> None:
        counters = self.counters
        peak = self._peak
        for position in insertions:
            value = counters[position] + 1
            counters[position] = value
            if peak >= 0 and value > peak:
                peak = int(value)
        for position in evictions:
            value = counters[position]
            if value > 0:
                counters[position] = value - 1
                if value == peak:
                    peak = -1
        self._peak = peak
        self._fit_width()

    def matches_positions(self, positions: Iterable[int]) -> bool:
        return all(self.counters[p] > 0 for p in positions)

    def covers(self, signature: BloomFilter) -> bool:
        return bool(np.all(self.counters[signature.bits] > 0))

    def bloom(self) -> BloomFilter:
        result = BloomFilter(self.scheme)
        result.bits = self.counters > 0
        return result


def _symbols_for_gap(zeros: int, run_cap: int, terminated: bool) -> List[int]:
    """Symbols encoding ``zeros`` consecutive zeros (+ a one iff terminated)."""
    symbols = [run_cap] * (zeros // run_cap)
    remainder = zeros % run_cap
    if terminated:
        symbols.append(remainder)  # L zeros then the terminating one
    elif remainder:
        symbols.append(remainder)  # tail; decoder truncates the phantom one
    return symbols


def loop_vlfl_encode(bits: np.ndarray, run_cap: int) -> CompressedSignature:
    """Encode a 0/1 vector with run cap ``R``, one gap at a time."""
    if run_cap < 1 or (run_cap + 1) & run_cap:
        raise ValueError(f"run cap must be 2**l - 1, got {run_cap}")
    bits = np.asarray(bits).astype(bool)
    ones = np.nonzero(bits)[0]
    boundaries = np.concatenate([[-1], ones])
    gaps = np.diff(boundaries) - 1  # zeros before each one
    symbols: List[int] = []
    for gap in gaps:
        symbols.extend(_symbols_for_gap(int(gap), run_cap, terminated=True))
    tail = len(bits) - (int(ones[-1]) + 1 if ones.size else 0)
    symbols.extend(_symbols_for_gap(tail, run_cap, terminated=False))
    codeword = max(1, (run_cap + 1).bit_length() - 1)
    if symbols:
        values = np.asarray(symbols, dtype=np.uint32)
        shifts = np.arange(codeword - 1, -1, -1, dtype=np.uint32)
        bitstream = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        payload = np.packbits(bitstream.ravel()).tobytes()
    else:
        payload = b""
    return CompressedSignature(
        run_cap=run_cap,
        original_bits=len(bits),
        symbol_count=len(symbols),
        payload=payload,
    )


def dense_vlfl_decode(compressed: CompressedSignature) -> np.ndarray:
    """Invert :func:`loop_vlfl_encode`; returns a bool vector of σ bits."""
    result = np.zeros(compressed.original_bits, dtype=bool)
    if compressed.symbol_count == 0:
        return result
    codeword = compressed.codeword_bits
    bitstream = np.unpackbits(np.frombuffer(compressed.payload, dtype=np.uint8))
    bitstream = bitstream[: compressed.symbol_count * codeword]
    weights = 1 << np.arange(codeword - 1, -1, -1, dtype=np.int64)
    values = bitstream.reshape(-1, codeword).astype(np.int64) @ weights
    terminated = values != compressed.run_cap
    lengths = values + terminated
    positions = np.cumsum(lengths) - 1  # index of each terminating one
    one_positions = positions[terminated]
    one_positions = one_positions[one_positions < compressed.original_bits]
    result[one_positions] = True
    return result


class DenseSignatureAgent(SignatureAgent):
    """:class:`SignatureAgent` over σ-vectors: own filter, snapshot, payload."""

    def __init__(self, scheme, counter_bits, compression_enabled=True, recollect_batch=1):
        super().__init__(scheme, counter_bits, compression_enabled, recollect_batch)
        self.own = DenseCountingBloomFilter(scheme, counter_bits)
        self.peer = DensePeerSignature(scheme)
        self._last_broadcast = np.zeros(scheme.size_bits, dtype=bool)

    def take_update(self) -> Tuple[List[int], List[int]]:
        current = self.own.signature().bits
        insertions = np.nonzero(current & ~self._last_broadcast)[0]
        evictions = np.nonzero(~current & self._last_broadcast)[0]
        self._last_broadcast = current.copy()
        return [int(p) for p in insertions], [int(p) for p in evictions]

    def full_signature_payload(self, cached_items: int) -> Tuple[np.ndarray, int, bool]:
        signature = self.own.signature()
        raw_bytes = signature.size_bytes
        if self.compression_enabled:
            run_cap, compress = compression_plan(
                cached_items, self.scheme.size_bits, self.scheme.k
            )
            if compress:
                compressed = loop_vlfl_encode(signature.bits, run_cap)
                if compressed.size_bytes < raw_bytes:
                    self.signatures_sent_compressed += 1
                    self.signature_bytes_sent += compressed.size_bytes
                    return dense_vlfl_decode(compressed), compressed.size_bytes, True
        self.signatures_sent_raw += 1
        self.signature_bytes_sent += raw_bytes
        return signature.bits.copy(), raw_bytes, False

    def merge_member_signature(self, member: int, bits: np.ndarray) -> None:
        signature = BloomFilter(self.scheme)
        signature.bits = np.asarray(bits, dtype=bool)
        self.peer.merge_signature(signature)
        self.outstanding.discard(member)


class RecomputingTCGManager(TCGManager):
    """:class:`TCGManager` over an ``(N, n_data)`` access-count matrix and a
    dense ``(N, N)`` dot-product matrix, re-deriving each row from the WADM
    and the ASM."""

    def __init__(self, n_clients: int, n_data: int, *args, **kwargs):
        super().__init__(n_clients, n_data, *args, **kwargs)
        self.access_counts = np.zeros((n_clients, n_data), dtype=np.int64)
        self._dot = np.zeros((n_clients, n_clients))
        self._sq_norms = np.zeros(n_clients)
        self._last_position = np.zeros((n_clients, 2))

    def similarity_row(self, client: int) -> np.ndarray:
        denominator = self._sq_norms[client] * self._sq_norms
        row = np.zeros(self.n_clients)
        np.divide(
            self._dot[client], np.sqrt(denominator), out=row, where=denominator > 0.0
        )
        row[client] = 1.0
        return row

    def access_count(self, client: int, item: int) -> int:
        return int(self.access_counts[client, item])

    def record_location(self, client: int, position: Sequence[float]) -> None:
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

    def record_access(self, client: int, item: int, count: int = 1) -> None:
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
                self._tracer.point(
                    self._tracer.declare("I", "tcg-change", ("changed", "size")),
                    client,
                    None,
                    int(changed.sum()),
                    int(eligible.sum()),
                )
        if self._monitor is not None:
            self._monitor.check_tcg_row(self, client)
