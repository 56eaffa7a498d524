"""Stress and churn tests of the protocol state machines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachingScheme
from repro.core.metrics import RequestOutcome
from repro.core.signatures_proto import SignatureAgent
from repro.signatures import SignatureScheme
from tests.test_core_client_protocol import World


def test_simultaneous_searchers_for_the_same_item():
    """Two clients search the same cached item concurrently; both get it."""
    points = [(0.0, 0.0), (30.0, 0.0), (15.0, 25.0)]
    world = World(points, scheme=CachingScheme.CC)
    world.give_item(2, item=7)
    world.env.process(world.clients[0].access_item(7))
    world.env.process(world.clients[1].access_item(7))
    world.env.run(until=30.0)
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 2
    assert 7 in world.clients[0].cache
    assert 7 in world.clients[1].cache


def test_three_hop_search_with_hop_dist_three():
    chain = [(0.0, 0.0), (40.0, 0.0), (80.0, 0.0), (120.0, 0.0)]
    world = World(chain, scheme=CachingScheme.CC, hop_dist=3)
    world.give_item(3, item=9)
    world.access(0, 9)
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 1


def test_many_outstanding_searches_interleave_cleanly():
    world = World([(0.0, 0.0), (30.0, 0.0)], scheme=CachingScheme.CC, cache_size=12)
    for item in range(20, 30):
        world.give_item(1, item=item)

    def burst():
        for item in range(20, 30):
            yield from world.clients[0].access_item(item)

    world.env.process(burst())
    world.env.run(until=60.0)
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 10
    assert not world.clients[0]._searches  # all search state cleaned up


def test_replier_disconnects_between_reply_and_retrieve():
    world = World([(0.0, 0.0), (30.0, 0.0)], scheme=CachingScheme.CC)
    world.give_item(1, item=7)

    original = world.clients[1].send_reply

    def reply_then_vanish(request, entry):
        def vanish(_sent):
            world.network.set_connected(1, False)
            world.clients[1].connected = False

        original(request, entry).add_callback(vanish)

    world.clients[1].send_reply = reply_then_vanish
    world.access(0, 7)
    # The retrieve fails; the requester must still resolve via the server.
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1
    assert 7 in world.clients[0].cache


def test_search_state_cleaned_after_timeout():
    world = World([(0.0, 0.0), (500.0, 0.0)], scheme=CachingScheme.CC)
    world.access(0, 3)  # nobody in range: timeout -> server
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1
    assert not world.clients[0]._searches


@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=9)),
        max_size=60,
    ),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_signature_agent_membership_churn_invariants(changes, batch):
    """Under arbitrary membership churn the agent's invariants hold:
    outstanding is a subset of members, and the peer vector's counters are
    consistent with its width."""
    agent = SignatureAgent(
        SignatureScheme(np.random.default_rng(0), 256, 2),
        counter_bits=4,
        recollect_batch=batch,
    )
    for add, peer in changes:
        if add:
            agent.apply_membership_changes({peer}, set())
        else:
            agent.apply_membership_changes(set(), {peer})
        assert agent.outstanding <= agent.members
        peak = max(agent.peer.counters.values(), default=0)
        assert agent.peer.counter_bits == peak.bit_length()
        assert all(count > 0 for count in agent.peer.counters.values())


@given(st.lists(st.integers(min_value=0, max_value=40), max_size=50))
@settings(max_examples=40, deadline=None)
def test_signature_agent_cache_bookkeeping_consistency(items):
    """Insert/evict bookkeeping keeps the own signature equal to a rebuild."""
    scheme = SignatureScheme(np.random.default_rng(1), 512, 2)
    agent = SignatureAgent(scheme, counter_bits=8)
    cache = []
    for item in items:
        if item in cache:
            cache.remove(item)
            agent.record_evict(item, cache)
        else:
            cache.append(item)
            agent.record_insert(item)
    reference = scheme.make_filter()
    reference.add_all(cache)
    assert np.array_equal(agent.own.signature().bits, reference.bits)


def test_piggyback_annihilation_across_many_flips():
    scheme = SignatureScheme(np.random.default_rng(2), 512, 2)
    agent = SignatureAgent(scheme, counter_bits=8)
    for _ in range(5):
        agent.record_insert(7)
        agent.record_evict(7, cache_items=[])
    insertions, evictions = agent.take_update()
    assert insertions == [] and evictions == []
