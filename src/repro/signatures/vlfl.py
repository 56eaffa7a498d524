"""Variable-length-to-fixed-length (VLFL) run-length coding (Section IV-D.2).

A sparse cache signature is mostly zeros.  VLFL decomposes the bit sequence
into run-lengths terminated either by ``R = 2^l − 1`` consecutive zeros or
by ``L < R`` zeros followed by a one, and assigns each run a fixed-length
codeword of ``l = log2(R + 1)`` bits.

With zero-probability ``φ = (1 − 1/σ)^(εk)`` the expected run length is
``η = (1 − φ^R) / (1 − φ)`` and the expected compressed size is
``σ' = σ · l / η`` bits.  :func:`compression_plan` is the paper's Algorithm 4:
it walks ``R = 1, 3, 7, ...`` while the expected size keeps shrinking.
A client compresses only when ``l < η`` at the optimum, i.e. when the
expected compressed signature is smaller than the raw one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

import numpy as np

__all__ = [
    "CompressedSignature",
    "compression_plan",
    "expected_compressed_bits",
    "find_optimal_r",
    "should_compress",
    "vlfl_decode",
    "vlfl_encode",
    "zero_probability",
]


def zero_probability(cache_items: int, size_bits: int, k: int) -> float:
    """φ: probability a given signature bit is zero (ε items hashed k times)."""
    if size_bits < 1 or k < 1 or cache_items < 0:
        raise ValueError("invalid bloom parameters")
    return (1.0 - 1.0 / size_bits) ** (cache_items * k)


def expected_run_length(phi: float, run_cap: int) -> float:
    """η: expected intermediate-symbol length for zero-probability φ."""
    if phi >= 1.0:
        return float(run_cap)
    return (1.0 - phi**run_cap) / (1.0 - phi)


def expected_compressed_bits(size_bits: int, phi: float, run_cap: int) -> float:
    """σ': expected compressed signature size in bits."""
    codeword = math.log2(run_cap + 1)
    return size_bits * codeword / expected_run_length(phi, run_cap)


@lru_cache(maxsize=4096)
def compression_plan(cache_items: int, size_bits: int, k: int) -> Tuple[int, bool]:
    """Algorithm 4 plus the local decision of Section IV-D.2, in one pass.

    Returns ``(run_cap, compress)``: the run cap ``R = 2^l − 1`` minimising
    the expected size, and whether at that optimum the codeword length is
    below the expected run length (equivalently: the expected compressed
    size beats σ).  Pure in three small ints, hence memoised.
    """
    phi = zero_probability(cache_items, size_bits, k)
    best_size = float(size_bits) + 1.0
    best_r = 1
    for exponent in range(1, 63):
        run_cap = (1 << exponent) - 1
        size = expected_compressed_bits(size_bits, phi, run_cap)
        if size < best_size:
            best_size = size
            best_r = run_cap
        else:
            break
    compress = math.log2(best_r + 1) < expected_run_length(phi, best_r)
    return best_r, compress


def find_optimal_r(cache_items: int, size_bits: int, k: int) -> int:
    """Algorithm 4: the run cap ``R = 2^l − 1`` minimising expected size."""
    return compression_plan(cache_items, size_bits, k)[0]


def should_compress(cache_items: int, size_bits: int, k: int) -> bool:
    """The client's local decision of Section IV-D.2."""
    return compression_plan(cache_items, size_bits, k)[1]


@dataclass(frozen=True)
class CompressedSignature:
    """A VLFL-encoded bit vector.

    ``payload`` is the packed codeword stream; ``original_bits`` is σ so the
    decoder can strip the phantom terminator of a trailing zero run.
    """

    run_cap: int
    original_bits: int
    symbol_count: int
    payload: bytes

    @property
    def codeword_bits(self) -> int:
        return max(1, (self.run_cap + 1).bit_length() - 1)

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    @property
    def size_bits(self) -> int:
        return self.symbol_count * self.codeword_bits


def _symbols_for_gap(zeros: int, run_cap: int, terminated: bool) -> List[int]:
    """Symbols encoding ``zeros`` consecutive zeros (+ a one iff terminated)."""
    symbols = [run_cap] * (zeros // run_cap)
    remainder = zeros % run_cap
    if terminated:
        symbols.append(remainder)  # L zeros then the terminating one
    elif remainder:
        symbols.append(remainder)  # tail; decoder truncates the phantom one
    return symbols


def vlfl_encode(bits: np.ndarray, run_cap: int) -> CompressedSignature:
    """Encode a 0/1 vector with run cap ``R`` (must be ``2^l − 1``).

    Works over the positions of set bits, so the cost is linear in the
    number of ones rather than in σ (cache signatures are sparse).
    """
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


def vlfl_decode(compressed: CompressedSignature) -> np.ndarray:
    """Invert :func:`vlfl_encode`; returns a bool vector of σ bits."""
    result = np.zeros(compressed.original_bits, dtype=bool)
    if compressed.symbol_count == 0:
        return result
    codeword = compressed.codeword_bits
    bitstream = np.unpackbits(np.frombuffer(compressed.payload, dtype=np.uint8))
    bitstream = bitstream[: compressed.symbol_count * codeword]
    weights = 1 << np.arange(codeword - 1, -1, -1, dtype=np.int64)
    values = bitstream.reshape(-1, codeword).astype(np.int64) @ weights
    # Each symbol contributes `value` zeros, plus a terminating one unless
    # it is a full run of R zeros.
    terminated = values != compressed.run_cap
    lengths = values + terminated
    positions = np.cumsum(lengths) - 1  # index of each terminating one
    one_positions = positions[terminated]
    one_positions = one_positions[one_positions < compressed.original_bits]
    result[one_positions] = True
    return result
