"""Tests for VLFL compression (Algorithm 4) and the peer counter vector."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures import (
    PeerSignature,
    SignatureScheme,
    expected_compressed_bits,
    find_optimal_r,
    should_compress,
    vlfl_decode,
    vlfl_encode,
)
from repro.signatures.vlfl import expected_run_length, zero_probability


def scheme(size=1024, k=2, seed=0):
    return SignatureScheme(np.random.default_rng(seed), size, k)


# -- vlfl encoding ---------------------------------------------------------------


def test_encode_decode_simple():
    bits = np.array([0, 0, 1, 0, 0, 0, 0, 1, 0, 0], dtype=bool)
    compressed = vlfl_encode(bits, run_cap=3)
    assert np.array_equal(vlfl_decode(compressed), bits)


def test_encode_all_zeros():
    bits = np.zeros(100, dtype=bool)
    compressed = vlfl_encode(bits, run_cap=7)
    assert np.array_equal(vlfl_decode(compressed), bits)
    # 100 zeros = 14 full runs of 7 + tail of 2 -> 15 symbols of 3 bits.
    assert compressed.symbol_count == 15
    assert compressed.size_bits == 45


def test_encode_all_ones():
    bits = np.ones(32, dtype=bool)
    compressed = vlfl_encode(bits, run_cap=3)
    assert np.array_equal(vlfl_decode(compressed), bits)
    assert compressed.symbol_count == 32  # every bit its own (L=0, 1) run


def test_encode_empty_vector():
    bits = np.zeros(0, dtype=bool)
    compressed = vlfl_encode(bits, run_cap=3)
    assert vlfl_decode(compressed).size == 0


def test_run_cap_must_be_power_of_two_minus_one():
    bits = np.zeros(8, dtype=bool)
    for bad in (0, 2, 4, 5, 6):
        with pytest.raises(ValueError):
            vlfl_encode(bits, run_cap=bad)
    for good in (1, 3, 7, 15):
        vlfl_encode(bits, run_cap=good)


def test_sparse_signature_compresses_well():
    rng = np.random.default_rng(1)
    bits = np.zeros(10_000, dtype=bool)
    bits[rng.choice(10_000, size=200, replace=False)] = True
    run_cap = find_optimal_r(100, 10_000, 2)
    compressed = vlfl_encode(bits, run_cap)
    assert compressed.size_bytes < 10_000 // 8  # beats the raw signature
    assert np.array_equal(vlfl_decode(compressed), bits)


@given(
    st.lists(st.booleans(), max_size=300),
    st.sampled_from([1, 3, 7, 15, 31]),
)
@settings(max_examples=80)
def test_roundtrip_property(bit_list, run_cap):
    bits = np.array(bit_list, dtype=bool)
    assert np.array_equal(vlfl_decode(vlfl_encode(bits, run_cap)), bits)


def test_codeword_bits():
    assert vlfl_encode(np.zeros(4, dtype=bool), 1).codeword_bits == 1
    assert vlfl_encode(np.zeros(4, dtype=bool), 7).codeword_bits == 3
    assert vlfl_encode(np.zeros(4, dtype=bool), 15).codeword_bits == 4


# -- analytics / algorithm 4 ----------------------------------------------------------


def test_zero_probability_bounds():
    phi = zero_probability(100, 10_000, 2)
    assert 0.97 < phi < 1.0
    assert zero_probability(0, 10_000, 2) == 1.0


def test_expected_run_length_uniform_zeros():
    # φ -> 1: every run maxes out at R.
    assert expected_run_length(1.0, 7) == 7.0
    # φ = 0: runs are single terminators.
    assert expected_run_length(0.0, 7) == 1.0


def test_find_optimal_r_sparse_beats_dense():
    sparse = find_optimal_r(cache_items=100, size_bits=10_000, k=2)
    dense = find_optimal_r(cache_items=5000, size_bits=10_000, k=2)
    assert sparse > dense


def test_find_optimal_r_matches_exhaustive_search():
    for cache_items, size_bits, k in [(100, 10_000, 2), (50, 1024, 4), (10, 512, 2)]:
        phi = zero_probability(cache_items, size_bits, k)
        best = min(
            ((1 << l) - 1 for l in range(1, 20)),
            key=lambda r: expected_compressed_bits(size_bits, phi, r),
        )
        assert find_optimal_r(cache_items, size_bits, k) == best


def test_should_compress_decision():
    assert should_compress(cache_items=100, size_bits=10_000, k=2)
    assert not should_compress(cache_items=5000, size_bits=10_000, k=2)


def test_expected_size_predicts_actual_size():
    rng = np.random.default_rng(2)
    size_bits, items, k = 10_000, 150, 2
    s = SignatureScheme(rng, size_bits, k)
    bloom = s.make_filter()
    bloom.add_all(range(items))
    run_cap = find_optimal_r(items, size_bits, k)
    compressed = vlfl_encode(bloom.bits, run_cap)
    phi = zero_probability(items, size_bits, k)
    predicted = expected_compressed_bits(size_bits, phi, run_cap)
    assert compressed.size_bits == pytest.approx(predicted, rel=0.15)


# -- peer signature ---------------------------------------------------------------------


def test_peer_signature_starts_empty():
    peer = PeerSignature(scheme())
    assert peer.counter_bits == 0
    assert peer.memory_bits == 0


def test_merge_signature_sets_counters_and_width():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all([1, 2, 3])
    peer.merge_signature(member)
    assert peer.counter_bits == 1
    assert peer.covers(s.data_signature(2))


def test_width_expands_with_overlapping_members():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all([1, 2, 3])
    for _ in range(3):  # three identical members -> counters reach 3
        peer.merge_signature(member)
    assert peer.counter_bits == 2
    assert peer.expansions >= 2


def test_width_contracts_after_evictions():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add(1)
    peer.merge_signature(member)
    peer.merge_signature(member)
    assert peer.counter_bits == 2
    positions = list(s.positions(1))
    peer.apply_update([], positions)  # one eviction of item 1 somewhere
    assert peer.counter_bits == 1
    assert peer.contractions >= 1


def test_apply_update_insertions_and_floor_at_zero():
    s = scheme()
    peer = PeerSignature(s)
    positions = list(s.positions(9))
    peer.apply_update(positions, [])
    assert peer.matches_positions(positions)
    peer.apply_update([], positions)
    peer.apply_update([], positions)  # extra evictions must not underflow
    assert not peer.matches_positions(positions)
    assert peer.counters == {}  # a count that reaches zero loses its key


def test_reset():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all(range(10))
    peer.merge_signature(member)
    peer.reset()
    assert peer.counter_bits == 0
    assert peer.counters == {}


def test_covers_and_bloom_view():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all([5, 6])
    peer.merge_signature(member)
    assert peer.covers(s.data_signature(5))
    collapsed = peer.bloom()
    assert collapsed.might_contain(6)


def test_cross_scheme_merge_rejected():
    peer = PeerSignature(scheme(seed=1))
    foreign = scheme(seed=2).make_filter()
    with pytest.raises(ValueError):
        peer.merge_signature(foreign)


@pytest.mark.parametrize("size", [1024, 512])
def test_cross_scheme_covers_rejected(size):
    """Same σ would answer for the wrong hash family; another σ would not fit."""
    peer = PeerSignature(scheme(seed=1))
    peer.merge_positions([3, 700])
    foreign = scheme(size=size, seed=2).make_filter()
    foreign.bits[3] = True
    with pytest.raises(ValueError, match="different scheme"):
        peer.covers(foreign)


def test_merge_counts_a_repeated_position_once():
    peer = PeerSignature(scheme())
    peer.merge_positions(np.array([4, 4, 9]))
    assert peer.counters == {4: 1, 9: 1}
    assert all(type(key) is int for key in peer.counters)
    assert peer.counter_bits == 1


@given(st.lists(st.integers(0, 30), max_size=40))
@settings(max_examples=40)
def test_peer_counters_never_negative_property(items):
    s = scheme(size=512, seed=5)
    peer = PeerSignature(s)
    for item in items:
        peer.apply_update(list(s.positions(item)), [])
    for item in items + items:  # evict more than inserted
        peer.apply_update([], list(s.positions(item)))
    assert all(count > 0 for count in peer.counters.values())
    assert peer.counter_bits == max(peer.counters.values(), default=0).bit_length()
