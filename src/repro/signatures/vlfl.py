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
from typing import Tuple

import numpy as np

__all__ = [
    "CompressedSignature",
    "compression_plan",
    "decode_positions",
    "encode_positions",
    "encoded_size_bytes",
    "expected_compressed_bits",
    "find_optimal_r",
    "should_compress",
    "symbol_count",
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
        return _codeword_bits(self.run_cap)

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    @property
    def size_bits(self) -> int:
        return self.symbol_count * self.codeword_bits


def encode_positions(
    ones: np.ndarray, size_bits: int, run_cap: int
) -> CompressedSignature:
    """Encode a σ-bit vector given as the ascending positions of its ones.

    The cost is linear in the number of ones, not in σ (cache signatures
    are sparse): a gap of ``g`` zeros before a one is ``g // R`` full-run
    symbols and then the symbol ``g % R``; the zeros after the last one are
    full runs plus a remainder symbol only when it is non-zero (the decoder
    truncates the phantom one).
    """
    if run_cap < 1 or (run_cap + 1) & run_cap:
        raise ValueError(f"run cap must be 2**l - 1, got {run_cap}")
    ones = np.asarray(ones, dtype=np.int64)
    gaps = ones.copy()  # zeros before each one
    gaps[1:] -= ones[:-1] + 1
    full, rest = np.divmod(gaps, run_cap)
    ends = (full + 1).cumsum()  # one past the last symbol of each gap
    tail = size_bits - (int(ones[-1]) + 1 if ones.size else 0)
    tail_full, tail_rest = divmod(tail, run_cap)
    terminated = int(ends[-1]) if ones.size else 0
    symbols = np.full(terminated + tail_full + bool(tail_rest), run_cap, np.int64)
    symbols[ends - 1] = rest
    if tail_rest:
        symbols[-1] = tail_rest
    codeword = _codeword_bits(run_cap)
    shifts = np.arange(codeword - 1, -1, -1, dtype=np.int64)
    bitstream = ((symbols[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return CompressedSignature(
        run_cap=run_cap,
        original_bits=size_bits,
        symbol_count=symbols.size,
        payload=np.packbits(bitstream.ravel()).tobytes(),
    )


def symbol_count(ones: np.ndarray, size_bits: int, run_cap: int) -> int:
    """How many symbols :func:`encode_positions` emits: ``g // R + 1`` per
    gap of ``g`` zeros before a one, then the tail's full runs and any rest."""
    ones = np.asarray(ones, dtype=np.int64)
    gaps = ones.copy()
    gaps[1:] -= ones[:-1] + 1
    tail = size_bits - (int(ones[-1]) + 1 if ones.size else 0)
    tail_full, tail_rest = divmod(tail, run_cap)
    return int((gaps // run_cap).sum()) + ones.size + tail_full + bool(tail_rest)


def encoded_size_bytes(ones: np.ndarray, size_bits: int, run_cap: int) -> int:
    """:func:`encode_positions`'s ``size_bytes``, without encoding."""
    return (symbol_count(ones, size_bits, run_cap) * _codeword_bits(run_cap) + 7) // 8


def _codeword_bits(run_cap: int) -> int:
    return max(1, (run_cap + 1).bit_length() - 1)


def decode_positions(compressed: CompressedSignature) -> np.ndarray:
    """Invert :func:`encode_positions`: the ascending one positions."""
    if compressed.symbol_count == 0:
        return np.empty(0, dtype=np.int64)
    codeword = compressed.codeword_bits
    packed = np.frombuffer(compressed.payload, dtype=np.uint8)
    bitstream = np.unpackbits(packed, count=compressed.symbol_count * codeword)
    weights = 1 << np.arange(codeword - 1, -1, -1, dtype=np.int64)
    values = bitstream.reshape(-1, codeword).astype(np.int64) @ weights
    # Each symbol contributes `value` zeros, plus a terminating one unless
    # it is a full run of R zeros.
    terminated = values != compressed.run_cap
    positions = (values + terminated).cumsum() - 1  # index of each terminating one
    ones = positions[terminated]
    return ones[ones < compressed.original_bits]


def vlfl_encode(bits: np.ndarray, run_cap: int) -> CompressedSignature:
    """Encode a dense 0/1 vector with run cap ``R`` (must be ``2^l − 1``)."""
    bits = np.asarray(bits).astype(bool)
    return encode_positions(np.flatnonzero(bits), len(bits), run_cap)


def vlfl_decode(compressed: CompressedSignature) -> np.ndarray:
    """Invert :func:`vlfl_encode`; returns a bool vector of σ bits."""
    result = np.zeros(compressed.original_bits, dtype=bool)
    result[decode_positions(compressed)] = True
    return result
