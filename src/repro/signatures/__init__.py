"""Cache signature substrate (Section IV-D).

* :mod:`repro.signatures.bloom` — the shared hash scheme, plain Bloom
  filters and their false-positive mathematics.
* :mod:`repro.signatures.counting` — the counting Bloom filter each client
  keeps for its own cache (π_c-bit saturating counters).
* :mod:`repro.signatures.vlfl` — variable-length-to-fixed-length run-length
  compression, including Algorithm 4 (``compression_plan``).
* :mod:`repro.signatures.peer` — the peer-signature counter vector with
  dynamic counter width (π_p expand/contract).
"""

from repro.signatures.bloom import BloomFilter, SignatureScheme
from repro.signatures.counting import CountingBloomFilter
from repro.signatures.peer import PeerSignature
from repro.signatures.vlfl import (
    CompressedSignature,
    compression_plan,
    expected_compressed_bits,
    find_optimal_r,
    should_compress,
    vlfl_decode,
    vlfl_encode,
)

__all__ = [
    "BloomFilter",
    "CompressedSignature",
    "CountingBloomFilter",
    "PeerSignature",
    "SignatureScheme",
    "compression_plan",
    "expected_compressed_bits",
    "find_optimal_r",
    "should_compress",
    "vlfl_decode",
    "vlfl_encode",
]
