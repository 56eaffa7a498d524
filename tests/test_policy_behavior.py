"""Unit tests for the new registered policy classes (PR 8).

Tests construct policies directly, where the simulator resolves them
through ``repro.policies.factory``.  Each test pins the decision rule
itself (probability law, hop gate, expiry ranking, GreedyDual inflation,
popularity counts) rather than end-to-end effects, which the conformance
battery and dominance tables cover.
"""

import math

import numpy as np
import pytest

from repro.cache.lru import CacheEntry, LRUCache
from repro.policies.admission import (
    AlwaysAdmit,
    GroCoCaAdmission,
    LeaveCopyDownAdmission,
    ProbCacheAdmission,
)
from repro.policies.replacement import (
    GreedyDualReplacement,
    LRUMinReplacement,
    LRUReplacement,
    PopularityRankReplacement,
)


def filled_cache(entries):
    """An LRUCache holding ``entries`` in insertion (LRU) order."""
    cache = LRUCache(len(entries))
    for position, entry in enumerate(entries):
        cache.insert(entry, now=float(position))
    return cache


# --------------------------------------------------------------------- #
# admission


def test_always_admit_never_rejects_and_counts_full_cache_decisions():
    policy = AlwaysAdmit()
    assert not policy.enabled
    assert policy.should_cache(cache_full=False, from_tcg_member=False, hops=3)
    assert policy.should_cache(cache_full=True, from_tcg_member=True, hops=1)
    # legacy call pattern: the not-full short circuit is never counted
    assert policy.admitted == 1
    assert policy.rejected == 0


def test_grococa_admission_rejects_tcg_member_copies_when_full():
    policy = GroCoCaAdmission()
    assert policy.enabled
    assert not policy.should_cache(
        cache_full=True, from_tcg_member=True, hops=1
    )
    assert policy.should_cache(cache_full=True, from_tcg_member=False, hops=1)
    assert policy.should_cache(cache_full=False, from_tcg_member=True, hops=1)
    assert policy.admitted == 1
    assert policy.rejected == 1


def test_probcache_admission_probability_scales_with_hops():
    rng = np.random.default_rng(7)
    policy = ProbCacheAdmission(hop_limit=5, rng=rng)
    trials = 2000
    near = sum(
        policy.should_cache(cache_full=True, from_tcg_member=False, hops=1)
        for _ in range(trials)
    )
    far = sum(
        policy.should_cache(cache_full=True, from_tcg_member=False, hops=4)
        for _ in range(trials)
    )
    # law of large numbers around p=0.2 and p=0.8
    assert abs(near / trials - 0.2) < 0.05
    assert abs(far / trials - 0.8) < 0.05
    # at or beyond the hop limit the probability saturates at 1
    assert all(
        policy.should_cache(cache_full=True, from_tcg_member=False, hops=hops)
        for hops in (5, 9)
        for _ in range(50)
    )
    assert policy.admitted + policy.rejected == 2 * trials + 2 * 50


def test_probcache_is_deterministic_under_a_seeded_stream():
    decisions = []
    for _ in range(2):
        policy = ProbCacheAdmission(hop_limit=4, rng=np.random.default_rng(3))
        decisions.append(
            [
                policy.should_cache(
                    cache_full=True, from_tcg_member=False, hops=2
                )
                for _ in range(64)
            ]
        )
    assert decisions[0] == decisions[1]


def test_lcd_admission_gates_on_single_hop():
    policy = LeaveCopyDownAdmission()
    assert policy.should_cache(cache_full=True, from_tcg_member=False, hops=1)
    assert not policy.should_cache(
        cache_full=True, from_tcg_member=False, hops=2
    )
    assert policy.admitted == 1
    assert policy.rejected == 1


# --------------------------------------------------------------------- #
# replacement


def test_lru_replacement_picks_least_recently_used():
    cache = filled_cache([CacheEntry(item=i) for i in range(3)])
    cache.touch(0, now=10.0)  # item 0 becomes most recent; LRU is item 1
    policy = LRUReplacement(cache)
    assert not policy.enabled
    assert policy.select_victim(now=11.0).item == 1
    assert policy.eviction_count() == 1


def test_lru_min_prefers_the_entry_closest_to_expiry():
    entries = [
        CacheEntry(item=0, expiry=50.0),
        CacheEntry(item=1, expiry=20.0),
        CacheEntry(item=2, expiry=80.0),
        CacheEntry(item=3, expiry=5.0),  # soonest, but outside the window
    ]
    cache = filled_cache(entries)
    cache.touch(3, now=10.0)  # push item 3 to the MRU end
    policy = LRUMinReplacement(cache, candidates=3)
    # window = 3 LRU entries {0, 1, 2}; item 1 expires soonest
    assert policy.select_victim(now=11.0).item == 1


def test_lru_min_breaks_expiry_ties_toward_lru_order():
    entries = [CacheEntry(item=i, expiry=math.inf) for i in range(4)]
    cache = filled_cache(entries)
    policy = LRUMinReplacement(cache, candidates=4)
    # all-immortal caches degenerate to plain LRU (strict < keeps entry 0)
    assert policy.select_victim(now=1.0).item == 0
    with pytest.raises(ValueError):
        LRUMinReplacement(cache, candidates=0)


def test_greedy_dual_evicts_minimum_h_and_inflates():
    cache = filled_cache(
        [
            CacheEntry(item=0, expiry=100.0),
            CacheEntry(item=1, expiry=12.0),
            CacheEntry(item=2, expiry=40.0),
        ]
    )
    policy = GreedyDualReplacement(cache)
    now = 10.0
    for item in (0, 1, 2):
        policy.note_insert(cache.get(item), now)
    # H values at now=10: item0=90, item1=2, item2=30
    victim = policy.select_victim(now)
    assert victim.item == 1
    assert policy._inflation == pytest.approx(2.0)
    cache.evict(victim.item)
    # a fresh insert is seeded above the inflation floor
    fresh = CacheEntry(item=5, expiry=13.0)
    cache.insert(fresh, now)
    policy.note_insert(fresh, now)
    assert policy._h[5] == pytest.approx(2.0 + 3.0)
    # the old long-TTL entries keep their pre-inflation H, so the
    # just-inserted short-TTL item is evicted next: aging in action
    assert policy.select_victim(now).item == 5


def test_greedy_dual_caps_immortal_entries():
    cache = filled_cache([CacheEntry(item=0, expiry=math.inf)])
    policy = GreedyDualReplacement(cache)
    policy.note_insert(cache.get(0), now=0.0)
    assert policy._h[0] == pytest.approx(1e18)
    assert policy.select_victim(now=0.0).item == 0


def test_popularity_rank_evicts_least_demanded_item():
    cache = filled_cache([CacheEntry(item=i) for i in range(3)])
    policy = PopularityRankReplacement(cache)
    assert policy.observes_requests
    for _ in range(3):
        policy.note_request(0)
    policy.note_remote_request(1)
    policy.note_remote_request(1)
    # item 2 was never requested → least popular
    assert policy.select_victim(now=1.0).item == 2
    assert policy.popularity(0) == 3
    assert policy.popularity(2) == 0


def test_popularity_rank_ties_break_toward_lru_and_counts_persist():
    cache = filled_cache([CacheEntry(item=i) for i in range(3)])
    policy = PopularityRankReplacement(cache)
    for item in range(3):
        policy.note_request(item)
    # all counts equal → strict < keeps the first (LRU) entry
    victim = policy.select_victim(now=1.0)
    assert victim.item == 0
    cache.evict(victim.item)
    # reputation survives eviction: the table is keyed by item, not slot
    assert policy.popularity(0) == 1


def test_empty_cache_yields_no_victim():
    cache = LRUCache(2)
    for policy in (
        LRUReplacement(cache),
        LRUMinReplacement(cache, candidates=2),
        GreedyDualReplacement(cache),
        PopularityRankReplacement(cache),
    ):
        assert policy.select_victim(now=0.0) is None
