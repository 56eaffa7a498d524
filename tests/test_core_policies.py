"""Tests for adaptive timeout, admission control, cooperative replacement
and the signature agent."""

import math

import numpy as np
import pytest

from repro.cache import CacheEntry, LRUCache
from repro.core.coca import AdaptiveTimeout, initial_timeout
from repro.core.signatures_proto import SignatureAgent
from repro.policies.admission import GroCoCaAdmission
from repro.policies.replacement import GroCoCaReplacement
from repro.signatures import PeerSignature, SignatureScheme
from repro.signatures.vlfl import (
    compression_plan,
    expected_run_length,
    find_optimal_r,
    should_compress,
    zero_probability,
)


def scheme(size=2048, k=2, seed=0):
    return SignatureScheme(np.random.default_rng(seed), size, k)


# -- adaptive timeout --------------------------------------------------------------


def test_initial_timeout_formula():
    # HopDist * (|req| + |rep|) * 8 / BW * phi
    value = initial_timeout(2, 64, 48, 2_000_000.0, 2.0)
    assert value == pytest.approx(2 * (64 + 48) * 8 / 2_000_000.0 * 2.0)


def test_initial_timeout_validation():
    with pytest.raises(ValueError):
        initial_timeout(0, 64, 48, 1000.0, 2.0)
    with pytest.raises(ValueError):
        initial_timeout(1, 64, 48, 0.0, 2.0)


def test_adaptive_timeout_before_samples_uses_initial():
    timeout = AdaptiveTimeout(0.5, deviation_phi=3.0)
    assert timeout.current() == 0.5


def test_adaptive_timeout_tracks_mean_plus_phi_stddev():
    timeout = AdaptiveTimeout(0.01, deviation_phi=3.0)
    for sample in (0.1, 0.2, 0.3):
        timeout.observe(sample)
    expected = 0.2 + 3.0 * np.std([0.1, 0.2, 0.3])
    assert timeout.current() == pytest.approx(expected)
    assert timeout.sample_count == 3


def test_adaptive_timeout_floored_at_initial():
    """One deterministic sample must not pin τ below a feasible round trip
    (the one-sample deadlock: σ = 0 -> τ = RTT₁ -> every slower reply
    times out -> no further samples ever)."""
    timeout = AdaptiveTimeout(0.5, deviation_phi=3.0)
    timeout.observe(0.1)
    assert timeout.current() == 0.5  # floor wins over 0.1 + 3·0


def test_adaptive_timeout_validation():
    with pytest.raises(ValueError):
        AdaptiveTimeout(0.0, 3.0)
    with pytest.raises(ValueError):
        AdaptiveTimeout(1.0, -1.0)
    timeout = AdaptiveTimeout(1.0, 3.0)
    with pytest.raises(ValueError):
        timeout.observe(-0.1)


# -- admission control ---------------------------------------------------------------


def test_admission_cache_not_full_always_caches():
    control = GroCoCaAdmission()
    assert control.should_cache(cache_full=False, from_tcg_member=True, hops=1)
    assert control.should_cache(cache_full=False, from_tcg_member=False, hops=1)


def test_admission_full_cache_rejects_tcg_supply():
    control = GroCoCaAdmission()
    assert not control.should_cache(cache_full=True, from_tcg_member=True, hops=1)
    assert control.should_cache(cache_full=True, from_tcg_member=False, hops=1)
    assert control.rejected == 1
    assert control.admitted == 1


# -- cooperative replacement ------------------------------------------------------------


def build_replacement(capacity=5, candidates=3, delay=2, seed=0):
    s = scheme(seed=seed)
    cache = LRUCache(capacity)
    peer = PeerSignature(s)
    policy = GroCoCaReplacement(cache, s, peer, candidates, delay)
    return s, cache, peer, policy


def fill(cache, items, policy):
    for now, item in enumerate(items):
        cache.insert(
            CacheEntry(item=item, singlet_ttl=policy.new_entry_ttl()), now=float(now)
        )


def test_empty_cache_has_no_victim():
    _, _, _, policy = build_replacement()
    assert policy.select_victim(now=0.0) is None


def test_replicated_candidate_evicted_first():
    s, cache, peer, policy = build_replacement()
    fill(cache, [1, 2, 3, 4, 5], policy)
    member = s.make_filter()
    member.add(2)  # item 2 is replicated in the TCG
    peer.merge_signature(member)
    victim = policy.select_victim(now=0.0)
    assert victim.item == 2
    assert policy.replica_evictions == 1


def test_plain_lru_when_nothing_replicated():
    _, cache, _, policy = build_replacement()
    fill(cache, [1, 2, 3, 4, 5], policy)
    victim = policy.select_victim(now=0.0)
    assert victim.item == 1
    assert policy.lru_evictions == 1


def test_replica_search_limited_to_candidate_window():
    s, cache, peer, policy = build_replacement(capacity=5, candidates=2)
    fill(cache, [1, 2, 3, 4, 5], policy)
    member = s.make_filter()
    member.add(4)  # replicated, but outside the 2-entry candidate window
    peer.merge_signature(member)
    victim = policy.select_victim(now=0.0)
    assert victim.item == 1  # falls back to LRU


def test_singlet_ttl_drops_spared_least_valuable():
    s, cache, peer, policy = build_replacement(delay=2)
    fill(cache, [1, 2, 3, 4, 5], policy)
    member = s.make_filter()
    member.add(2)
    peer.merge_signature(member)
    # First selection: 2 is evicted, 1 (singlet) is spared, its TTL 2 -> 1.
    assert policy.select_victim(now=0.0).item == 2
    assert cache.get(1).singlet_ttl == 1
    # Second selection: 2 is still "cached" in our test cache; evict it for
    # real to let 3 be the replicated candidate.
    cache.evict(2)
    member2 = s.make_filter()
    member2.add(3)
    peer.merge_signature(member2)
    # 1 spared again -> TTL 0 -> dropped instead.
    victim = policy.select_victim(now=0.0)
    assert victim.item == 1
    assert policy.singlet_drops == 1


def test_note_access_resets_singlet_ttl():
    _, cache, _, policy = build_replacement(delay=3)
    fill(cache, [1, 2], policy)
    entry = cache.get(1)
    entry.singlet_ttl = 1
    policy.note_access(entry, now=0.0)
    assert entry.singlet_ttl == 3


def test_least_valuable_replica_is_evicted_without_penalty():
    s, cache, peer, policy = build_replacement()
    fill(cache, [1, 2, 3], policy)
    member = s.make_filter()
    member.add(1)
    peer.merge_signature(member)
    assert policy.select_victim(now=0.0).item == 1
    assert cache.get(2).singlet_ttl == policy.new_entry_ttl()  # untouched


def test_replacement_validation():
    s = scheme()
    cache = LRUCache(2)
    peer = PeerSignature(s)
    with pytest.raises(ValueError):
        GroCoCaReplacement(cache, s, peer, 0, 2)
    with pytest.raises(ValueError):
        GroCoCaReplacement(cache, s, peer, 2, 0)


# -- signature agent -----------------------------------------------------------------------


def test_take_update_reports_bit_flips_once():
    agent = SignatureAgent(scheme(), counter_bits=4)
    agent.record_insert(1)
    insertions, evictions = agent.take_update()
    assert set(insertions) == set(agent.scheme.positions(1))
    assert evictions == []
    assert agent.take_update() == ([], [])  # nothing new


def test_take_update_annihilates_insert_then_evict():
    agent = SignatureAgent(scheme(), counter_bits=4)
    agent.record_insert(1)
    agent.record_evict(1, cache_items=[])
    assert agent.take_update() == ([], [])


def test_take_update_eviction_positions():
    agent = SignatureAgent(scheme(), counter_bits=4)
    agent.record_insert(1)
    agent.take_update()
    agent.record_evict(1, cache_items=[])
    insertions, evictions = agent.take_update()
    assert insertions == []
    assert set(evictions) == set(agent.scheme.positions(1))


def test_shared_bit_not_reported_on_partial_evict():
    s = scheme()
    agent = SignatureAgent(s, counter_bits=4)
    agent.record_insert(1)
    agent.record_insert(2)
    agent.take_update()
    agent.record_evict(1, cache_items=[2])
    _, evictions = agent.take_update()
    shared = set(s.positions(1)) & set(s.positions(2))
    assert not shared & set(evictions)  # bits still held by item 2 stay set


def test_full_signature_payload_compresses_sparse_cache():
    agent = SignatureAgent(scheme(size=10_000, seed=3), counter_bits=4)
    for item in range(50):
        agent.record_insert(item)
    positions, size_bytes, compressed = agent.full_signature_payload(cached_items=50)
    assert compressed
    assert size_bytes < 10_000 // 8
    assert positions.tolist() == agent.own.positions()  # lossless


def test_full_signature_payload_raw_when_compression_disabled():
    agent = SignatureAgent(
        scheme(size=10_000, seed=3), counter_bits=4, compression_enabled=False
    )
    agent.record_insert(1)
    _, size_bytes, compressed = agent.full_signature_payload(cached_items=1)
    assert not compressed
    assert size_bytes == 1250


def test_compression_plan_is_algorithm_4_plus_the_decision_once():
    """One memoised pass gives what the two public wrappers give."""
    for items, size_bits, k in [(0, 64, 1), (50, 10_000, 2), (5000, 10_000, 2), (9, 512, 4)]:
        run_cap, compress = compression_plan(items, size_bits, k)
        assert run_cap == find_optimal_r(items, size_bits, k)
        assert compress is should_compress(items, size_bits, k)
        eta = expected_run_length(zero_probability(items, size_bits, k), run_cap)
        assert compress == (math.log2(run_cap + 1) < eta)
    before = compression_plan.cache_info().hits
    compression_plan(50, 10_000, 2)
    assert compression_plan.cache_info().hits == before + 1
    with pytest.raises(ValueError):
        compression_plan(1, 0, 2)


def test_membership_add_requests_signature():
    agent = SignatureAgent(scheme(), counter_bits=4)
    actions = agent.apply_membership_changes({3, 4}, set())
    assert actions.request_from == {3, 4}
    assert not actions.recollect
    assert agent.members == {3, 4}
    assert agent.outstanding == {3, 4}


def test_membership_departure_triggers_recollection():
    agent = SignatureAgent(scheme(), counter_bits=4)
    agent.apply_membership_changes({3, 4, 5}, set())
    agent.outstanding.clear()  # pretend signatures were collected
    agent.peer.apply_update(list(agent.scheme.positions(9)), [])
    actions = agent.apply_membership_changes(set(), {5})
    assert actions.recollect
    assert agent.peer.counter_bits == 0  # vector was reset
    assert agent.outstanding == {3, 4}


def test_membership_recollect_batch_defers_reset():
    agent = SignatureAgent(scheme(), counter_bits=4, recollect_batch=2)
    agent.apply_membership_changes({1, 2, 3}, set())
    first = agent.apply_membership_changes(set(), {1})
    assert not first.recollect  # only one departure so far
    second = agent.apply_membership_changes(set(), {2})
    assert second.recollect


def test_reconnect_sync_resets_and_recollects():
    agent = SignatureAgent(scheme(), counter_bits=4)
    agent.apply_membership_changes({1, 2}, set())
    actions = agent.reconnect_sync({2, 7})
    assert agent.members == {2, 7}
    assert agent.outstanding == {2, 7}
    assert actions.recollect


def test_reconnect_sync_empty_membership_no_recollect():
    agent = SignatureAgent(scheme(), counter_bits=4)
    actions = agent.reconnect_sync(set())
    assert not actions.recollect


def test_notice_peer_alive_only_for_outstanding():
    agent = SignatureAgent(scheme(), counter_bits=4)
    agent.apply_membership_changes({1}, set())
    assert agent.notice_peer_alive(1)
    agent.merge_member_signature(1, [])
    assert not agent.notice_peer_alive(1)


def test_likely_cached_by_members_filter():
    s = scheme()
    agent = SignatureAgent(s, counter_bits=4)
    agent.merge_member_signature(1, sorted(set(s.positions(42))))
    assert agent.likely_cached_by_members(42)
    misses = sum(not agent.likely_cached_by_members(i) for i in range(500, 600))
    assert misses >= 95


def test_agent_validation():
    with pytest.raises(ValueError):
        SignatureAgent(scheme(), counter_bits=4, recollect_batch=0)
