"""Tests for the Bloom filter scheme and counting Bloom filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures import CountingBloomFilter, SignatureScheme


def scheme(size=1024, k=2, seed=0):
    return SignatureScheme(np.random.default_rng(seed), size, k)


def test_positions_deterministic_and_in_range():
    s = scheme()
    first = s.positions(1234)
    assert first == s.positions(1234)
    assert len(first) == 2
    assert all(0 <= p < 1024 for p in first)


def test_positions_differ_across_schemes_with_seeds():
    assert scheme(seed=1).positions(7) != scheme(seed=2).positions(7)


@pytest.mark.parametrize("size, k", [(10_000, 2), (8, 3), (65_537, 1)])
def test_positions_equal_the_object_dtype_formula(size, k):
    """h_i(x) = ((a_i x + b_i) mod p) mod σ on Python ints is the formula
    evaluated over object-dtype arrays: a·x + b passes 2**63 here."""
    prime = (1 << 61) - 1
    rng = np.random.default_rng(size)
    a = rng.integers(1, prime, size=k, dtype=np.int64).astype(object)
    b = rng.integers(0, prime, size=k, dtype=np.int64).astype(object)
    items = [-12_345, *range(200_001)]
    expected = (a[:, None] * np.array(items, dtype=object) + b[:, None]) % prime % size
    s = SignatureScheme(np.random.default_rng(size), size, k)
    assert [s.positions(item) for item in items] == [
        tuple(int(p) for p in column) for column in expected.T.tolist()
    ]
    assert all(type(p) is int for p in s.positions(200_000))


def test_bloom_no_false_negatives_basic():
    s = scheme()
    bloom = s.make_filter()
    bloom.add_all(range(50))
    for item in range(50):
        assert bloom.might_contain(item)


@given(st.sets(st.integers(min_value=0, max_value=10**9), max_size=100))
@settings(max_examples=50)
def test_bloom_no_false_negatives_property(items):
    s = scheme(size=512, k=3, seed=7)
    bloom = s.make_filter()
    bloom.add_all(items)
    assert all(bloom.might_contain(item) for item in items)


def test_bloom_definitely_not_present_when_bits_clear():
    s = scheme(size=4096, k=2)
    bloom = s.make_filter()
    bloom.add(1)
    misses = sum(not bloom.might_contain(item) for item in range(100, 200))
    assert misses >= 95  # nearly everything else is a definite miss


def test_false_positive_rate_tracks_analytic_model():
    s = scheme(size=1024, k=2, seed=3)
    bloom = s.make_filter()
    inserted = list(range(200))
    bloom.add_all(inserted)
    probes = range(10_000, 20_000)
    observed = sum(bloom.might_contain(item) for item in probes) / len(list(probes))
    predicted = s.false_positive_probability(200)
    assert observed == pytest.approx(predicted, rel=0.25)


def test_optimal_k_formula():
    assert SignatureScheme.optimal_k(1024, 100) == round(0.6931 * 1024 / 100)
    assert SignatureScheme.optimal_k(8, 10_000) == 1  # never below 1


def test_false_positive_probability_monotone_in_items():
    s = scheme()
    values = [s.false_positive_probability(n) for n in (0, 10, 100, 1000)]
    assert values[0] == 0.0
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_superimpose_and_covers():
    s = scheme()
    a = s.make_filter()
    a.add_all([1, 2, 3])
    b = s.make_filter()
    b.add_all([4, 5])
    union = a.copy()
    union.superimpose(b)
    for item in (1, 2, 3, 4, 5):
        assert union.might_contain(item)
    search = s.data_signature(2)
    assert union.covers(search)
    assert a.covers(search)
    assert not b.covers(search) or b.might_contain(2)  # only via false positive


def test_cross_scheme_operations_rejected():
    a = scheme(seed=1).make_filter()
    b = scheme(seed=2).make_filter()
    with pytest.raises(ValueError):
        a.superimpose(b)
    with pytest.raises(ValueError):
        a.covers(b)


def test_size_bytes():
    assert scheme(size=1000).make_filter().size_bytes == 125
    assert scheme(size=1001).make_filter().size_bytes == 126


def test_scheme_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        SignatureScheme(rng, 0, 2)
    with pytest.raises(ValueError):
        SignatureScheme(rng, 10, 0)
    with pytest.raises(ValueError):
        scheme().false_positive_probability(-1)
    with pytest.raises(ValueError):
        SignatureScheme.optimal_k(10, 0)


# -- counting bloom filter ------------------------------------------------------


def test_counting_add_remove_roundtrip():
    counting = CountingBloomFilter(scheme(), counter_bits=4)
    counting.add(1)
    counting.add(2)
    assert counting.might_contain(1)
    assert counting.remove(1)
    assert counting.might_contain(2)
    signature = counting.signature()
    assert signature.might_contain(2)


def test_counting_signature_equals_rebuilt_bloom():
    s = scheme()
    counting = CountingBloomFilter(s, counter_bits=8)
    items = [3, 1, 4, 1, 5, 9, 2, 6]  # duplicates exercise counters > 1
    for item in items:
        counting.add(item)
    for item in (1, 9):
        assert counting.remove(item)
    reference = s.make_filter()
    reference.add_all([3, 4, 1, 5, 2, 6])
    assert np.array_equal(counting.signature().bits, reference.bits)


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=60))
@settings(max_examples=50)
def test_counting_matches_rebuild_property(items):
    """add/remove bookkeeping == rebuild from scratch (absent saturation)."""
    s = scheme(size=2048, k=2, seed=11)
    counting = CountingBloomFilter(s, counter_bits=8)  # high cap: no saturation
    for item in items:
        counting.add(item)
    removed = items[::2]
    for item in removed:
        assert counting.remove(item)
    remaining = list(items)
    for item in removed:
        remaining.remove(item)
    reference = CountingBloomFilter(s, counter_bits=8)
    for item in remaining:
        reference.add(item)
    assert np.array_equal(counting.counters, reference.counters)


def test_counting_saturation_sticks():
    counting = CountingBloomFilter(scheme(), counter_bits=1)  # max value 1
    counting.add(1)
    counting.add(1)  # increment discarded at saturation
    position = counting.scheme.positions(1)[0]
    assert counting.counters[position] == 1


def test_counting_remove_at_zero_requests_rebuild():
    counting = CountingBloomFilter(scheme(), counter_bits=4)
    assert not counting.remove(42)  # nothing cached: rebuild signal
    counting.rebuild([1, 2, 3])
    assert counting.rebuilds == 1
    assert counting.might_contain(2)
    assert not counting.remove(42) or True  # may collide; no crash


def test_counting_validation():
    with pytest.raises(ValueError):
        CountingBloomFilter(scheme(), counter_bits=0)
