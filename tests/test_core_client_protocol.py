"""Protocol-level tests of the mobile host.

A tiny world of stationary clients lets each COCA/GroCoCa message flow be
exercised and asserted in isolation: searches, replies, retrieves,
timeouts, signature exchange, admission control and validation.
"""

import math

import numpy as np
import pytest

from repro.cache import CacheEntry
from repro.core.client import MobileHost
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Metrics, RequestOutcome
from repro.core.server import MobileSupportStation
from repro.core.tcg import TCGManager
from repro.data.server_db import ServerDatabase
from repro.data.workload import AccessPattern
from repro.mobility import MobilityField, StationaryTrajectory
from repro.net import MessageSizes, P2PNetwork, PowerLedger, ServerChannel
from repro.obs import Tracer
from repro.sim import Environment
from repro.signatures import CountingBloomFilter, SignatureScheme


class World:
    """A hand-wired simulation over stationary hosts."""

    def __init__(self, positions, scheme=CachingScheme.GC, tracer=None, **overrides):
        n = len(positions)
        settings = dict(
            scheme=scheme,
            n_clients=n,
            n_data=100,
            access_range=50,
            cache_size=5,
            think_time_mean=1e9,  # the request loop never fires on its own
            ndp_enabled=False,
            warmup_min_time=0.0,
            hop_dist=2,
            tran_range=50.0,
        )
        settings.update(overrides)
        self.config = SimulationConfig(**settings)
        self.env = Environment()
        self.field = MobilityField([StationaryTrajectory(p) for p in positions])
        self.ledger = PowerLedger(n)
        self.network = P2PNetwork(
            self.env,
            self.field,
            self.config.bw_p2p,
            self.config.tran_range,
            self.ledger,
        )
        self.channel = ServerChannel(
            self.env, self.config.bw_downlink, self.config.bw_uplink
        )
        self.database = ServerDatabase(
            self.env, np.random.default_rng(0), self.config.n_data
        )
        self.tcg = None
        self.signature_scheme = None
        if scheme is CachingScheme.GC:
            self.tcg = TCGManager(n, self.config.n_data, 100.0, 0.2, 0.5)
            self.signature_scheme = SignatureScheme(
                np.random.default_rng(1), 2048, 2
            )
        self.server = MobileSupportStation(
            self.env, self.config, self.database, tcg=self.tcg
        )
        self.metrics = Metrics(scheme.value)
        self.metrics.start_recording(0.0, self.ledger, n)
        sizes = MessageSizes(data=self.config.data_size)
        def host(index):
            rng = np.random.default_rng(3 + index)
            pattern = AccessPattern(
                np.random.default_rng(2), self.config.n_data, 50, 0.5, 0
            )
            return MobileHost(
                index,
                self.env,
                self.config,
                self.network,
                self.channel,
                self.server,
                pattern,
                self.metrics,
                rng,
                sizes,
                signature_scheme=self.signature_scheme,
                tracer=tracer,
            )

        self.clients = [host(index) for index in range(n)]

    def give_item(self, client_index, item, expiry=math.inf):
        """Plant a valid cached copy at a client."""
        client = self.clients[client_index]
        entry = CacheEntry(item=item, expiry=expiry, retrieve_time=0.0)
        client._insert(entry)

    def befriend(self, a, b):
        """Make two GC clients mutual TCG members with known signatures."""
        first, second = self.clients[a], self.clients[b]
        first.signatures.members.add(b)
        second.signatures.members.add(a)
        first.signatures.merge_member_signature(b, second.signatures.own.positions())
        second.signatures.merge_member_signature(a, first.signatures.own.positions())

    def access(self, client_index, item):
        """Drive one access to completion; returns sim duration."""
        start = self.env.now
        self.env.process(self.clients[client_index].access_item(item))
        self.env.run(until=self.env.now + 30.0)
        return self.env.now - start

    def outcome_counts(self):
        return {o.name: c for o, c in self.metrics.outcomes.items() if c}


NEAR = [(0.0, 0.0), (30.0, 0.0)]
CHAIN = [(0.0, 0.0), (40.0, 0.0), (80.0, 0.0)]  # 0-1-2, 0 cannot hear 2


def test_local_hit_is_instant():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(0, item=7)
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.LOCAL_HIT] == 1
    assert world.metrics.latency.mean == 0.0


def test_global_hit_one_hop():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(1, item=7)
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 1
    assert 7 in world.clients[0].cache  # admitted (cache not full)
    assert world.metrics.latency.mean > 0.0


def test_global_hit_two_hops_through_relay():
    world = World(CHAIN, scheme=CachingScheme.CC, hop_dist=2)
    world.give_item(2, item=9)
    world.access(0, 9)
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 1


def test_hop_limit_blocks_distant_peer():
    world = World(CHAIN, scheme=CachingScheme.CC, hop_dist=1)
    world.give_item(2, item=9)
    world.access(0, 9)
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1


def test_no_cacher_falls_back_to_server_after_timeout():
    world = World(NEAR, scheme=CachingScheme.CC)
    duration = world.access(0, 3)
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1
    # The search timeout was paid before the server path.
    assert duration >= world.clients[0].timeout.initial
    assert 3 in world.clients[0].cache


def test_expired_peer_copy_not_served():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(1, item=7, expiry=0.5)
    world.env.run(until=1.0)  # let the copy expire
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1


def test_reply_timeout_adapts():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(1, item=7)
    world.access(0, 7)
    assert world.clients[0].timeout.sample_count == 1


def test_admission_rejects_tcg_supply_when_full():
    world = World(NEAR, scheme=CachingScheme.GC, cache_size=3)
    for item in (1, 2, 3):
        world.give_item(0, item)
    world.give_item(1, item=7)
    world.befriend(0, 1)
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 1
    assert 7 not in world.clients[0].cache  # readily available at the member
    assert len(world.clients[0].cache) == 3


def test_admission_caches_non_member_supply_when_full():
    world = World(NEAR, scheme=CachingScheme.GC, cache_size=3)
    for item in (1, 2, 3):
        world.give_item(0, item)
    world.give_item(1, item=7)
    # 1 caches 7 but is NOT a TCG member of 0; still searched (filter off).
    world.config.signature_filtering = False
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 1
    assert 7 in world.clients[0].cache
    assert len(world.clients[0].cache) == 3  # someone was replaced


def _full_traced_client(scheme):
    """Client 0 of a two-host world: cache (1, 3, 2 in LRU order) full, a
    tracer attached and the replacement policy's choices recorded."""
    world = World(NEAR, scheme=scheme, cache_size=3, tracer=Tracer())
    client = world.clients[0]
    client._tracer.bind(world.env)
    for item in (1, 2, 3):
        world.give_item(0, item)
    client.cache.touch(2, world.env.now)
    chosen = []
    select = client.replacement.select_victim

    def recording_select(now):
        chosen.append(select(now))
        return chosen[-1]

    client.replacement.select_victim = recording_select
    return world, client, chosen


def _cache_instants(client):
    return [
        (event.name, event.args["item"])
        for event in client._tracer.events
        if event.name in ("cache-evict", "cache-admit")
    ]


@pytest.mark.parametrize("scheme", [CachingScheme.CC, CachingScheme.GC], ids=lambda s: s.value)
def test_new_item_into_full_cache_evicts_exactly_the_policys_victim(scheme):
    world, client, chosen = _full_traced_client(scheme)
    world.give_item(0, 9)
    assert len(chosen) == 1
    victim = chosen[0].item
    assert sorted(client.cache.items()) == sorted({1, 2, 3, 9} - {victim})
    assert client.cache.evictions == 1
    # The tracer sees the eviction first, then the admission.
    assert _cache_instants(client)[-2:] == [("cache-evict", victim), ("cache-admit", 9)]
    if client.signatures is not None:
        # The own signature was told both halves: it equals a fresh build.
        fresh = CountingBloomFilter(world.signature_scheme, world.config.counter_bits)
        fresh.rebuild(client.cache.items())
        assert client.signatures.own.counters == fresh.counters


def test_refreshing_a_cached_item_evicts_nothing():
    world, client, chosen = _full_traced_client(CachingScheme.GC)
    before = _cache_instants(client)
    world.give_item(0, 1, expiry=50.0)  # already cached: a refresh
    assert chosen == []  # the policy was not even asked
    assert client.cache.evictions == 0
    assert sorted(client.cache.items()) == [1, 2, 3]
    assert client.cache.get(1).expiry == 50.0
    assert client.cache.items()[-1] == 1  # refreshed copy is MRU
    assert _cache_instants(client) == before  # neither evict nor admit


def test_gc_filter_bypasses_unknown_items():
    world = World(NEAR, scheme=CachingScheme.GC)
    world.befriend(0, 1)
    world.access(0, 42)  # no member caches 42
    assert world.metrics.bypassed_searches == 1
    assert world.metrics.peer_searches == 0
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1


def test_gc_filter_allows_member_cached_items():
    world = World(NEAR, scheme=CachingScheme.GC)
    world.give_item(1, item=7)
    world.befriend(0, 1)
    world.access(0, 7)
    assert world.metrics.peer_searches == 1
    assert world.metrics.outcomes[RequestOutcome.GLOBAL_HIT] == 1
    assert world.metrics.global_hits_tcg == 1


def test_serving_tcg_member_touches_the_copy():
    world = World(NEAR, scheme=CachingScheme.GC)
    world.give_item(1, item=7)
    world.give_item(1, item=8)  # 8 is now MRU at client 1
    world.befriend(0, 1)
    world.access(0, 7)
    # Serving member 0 refreshed item 7: it must now be the MRU.
    assert world.clients[1].cache.items()[-1] == 7


def test_serving_non_member_does_not_touch():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(1, item=7)
    world.give_item(1, item=8)
    world.access(0, 7)
    assert world.clients[1].cache.items()[-1] == 8  # order unchanged


def test_piggybacked_signature_update_reaches_member():
    world = World(NEAR, scheme=CachingScheme.GC)
    world.befriend(0, 1)
    world.give_item(0, item=5)  # sets pending insertion positions
    world.config.signature_filtering = False
    world.access(0, 42)  # broadcast carries the piggyback
    scheme = world.signature_scheme
    assert world.clients[1].signatures.peer.matches_positions(scheme.positions(5))


def test_sig_request_reply_roundtrip():
    world = World(NEAR, scheme=CachingScheme.GC)
    client = world.clients[0]
    world.give_item(1, item=7)
    client.signatures.members.add(1)
    client.signatures.outstanding.add(1)
    client.send_sig_request(1)
    world.env.run(until=5.0)
    assert client.signatures.outstanding == set()
    assert client.signatures.likely_cached_by_members(7)
    assert world.ledger.total("signature") > 0


def test_broadcast_sig_request_scoped_to_members():
    world = World([(0.0, 0.0), (30.0, 0.0), (30.0, 20.0)], scheme=CachingScheme.GC)
    requester = world.clients[0]
    world.give_item(1, item=7)
    world.give_item(2, item=8)
    requester.signatures.members.add(1)
    requester.signatures.outstanding.add(1)
    requester.send_sig_request(-1, members={1})
    world.env.run(until=5.0)
    # Only member 1's signature arrived; 2 dropped the request.
    assert requester.signatures.likely_cached_by_members(7)
    assert not requester.signatures.likely_cached_by_members(8)


def test_validation_approved_copy_counts_as_local_hit():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(0, item=7, expiry=1.0)
    world.env.run(until=2.0)
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.LOCAL_HIT] == 1
    assert world.metrics.validations == 1
    assert world.metrics.validation_refreshes == 0
    # The approved copy keeps its retrieve time but gets a fresh expiry.
    assert world.clients[0].cache.get(7).is_valid(world.env.now)


def test_validation_refreshes_stale_copy():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(0, item=7, expiry=1.0)
    world.env.run(until=2.0)
    world.database.apply_update(7)
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1
    assert world.metrics.validation_refreshes == 1
    assert world.clients[0].cache.get(7).version == 1


def test_flood_deduplication_bounds_rebroadcasts():
    # A clique of four: every REQUEST would be rebroadcast by every peer
    # once at most, despite arriving multiple times.
    square = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)]
    world = World(square, scheme=CachingScheme.CC, hop_dist=3)
    world.access(0, 3)  # nobody caches item 3
    # 1 original + at most one forward per other client.
    assert world.network.broadcasts <= 4


def test_retrieve_race_falls_back_to_server():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(1, item=7)

    # Evict the copy at client 1 the instant it replies.
    original_send_reply = world.clients[1].send_reply

    def evil_send_reply(request, entry):
        def evict(_sent):
            if 7 in world.clients[1].cache:
                world.clients[1].cache.evict(7)

        original_send_reply(request, entry).add_callback(evict)

    world.clients[1].send_reply = evil_send_reply
    world.access(0, 7)
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1


def test_request_loop_draws_think_time_then_item():
    """Each request waits an exponential think time drawn from the host's
    own stream, then draws its item from the host's access pattern."""
    world = World(NEAR, scheme=CachingScheme.LC, think_time_mean=2.0)
    seen = []

    def record(item):
        seen.append((world.env.now, item))
        yield world.env.timeout(0.0)

    world.clients[0].access_item = record
    delays = np.random.default_rng(3)  # World's host 0 stream
    pattern = AccessPattern(np.random.default_rng(2), 100, 50, 0.5, 0)
    expected, now = [], 0.0
    for _ in range(3):
        now += delays.exponential(2.0)
        expected.append((now, pattern.next_item()))
    world.env.run(until=expected[-1][0] + 1e-9)
    assert seen == expected


def test_lc_client_requires_no_signature_scheme():
    world = World(NEAR, scheme=CachingScheme.LC)
    assert world.clients[0].signatures is None
    world.access(0, 3)
    assert world.metrics.outcomes[RequestOutcome.SERVER] == 1
    assert world.network.broadcasts == 0


def test_gc_client_without_signature_scheme_rejected():
    world = World(NEAR, scheme=CachingScheme.CC)
    with pytest.raises(ValueError):
        MobileHost(
            0,
            world.env,
            world.config.with_scheme(CachingScheme.GC),
            world.network,
            world.channel,
            world.server,
            AccessPattern(np.random.default_rng(0), 100, 50, 0.5, 0),
            world.metrics,
            np.random.default_rng(0),
            MessageSizes(),
            signature_scheme=None,
        )
