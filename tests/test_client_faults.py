"""Protocol edge cases under crashes and scripted message loss.

Reuses the stationary :class:`~tests.test_core_client_protocol.World`
harness; loss is scripted per delivery (not sampled) so every test is a
deterministic walk through one recovery path: requester crashing
mid-search, a reply racing a crash, a relay dying mid-route, search
re-floods and retrieve failover.
"""

from repro.core.config import CachingScheme
from tests.test_core_client_protocol import CHAIN, NEAR, World


class ScriptedFaults:
    """Stands in for a FaultInjector: drops follow a fixed per-delivery
    script (then pass everything)."""

    def __init__(self, script):
        self.script = list(script)

    def drop_p2p(self, receiver: int) -> bool:
        return self.script.pop(0) if self.script else False

    def drop_uplink(self) -> bool:
        return False

    def drop_downlink(self) -> bool:
        return False


# -- crash-stop edge cases ----------------------------------------------------


def test_access_while_crashed_fails_fast():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.clients[0].crash()
    world.access(0, 7)
    assert world.outcome_counts() == {"FAILURE": 1}
    assert world.clients[0].crashes == 1
    assert world.clients[0].disconnections == 0


def test_requester_crashing_mid_search_fails_without_server_fallback():
    world = World(NEAR, scheme=CachingScheme.CC)
    world.give_item(1, item=7)
    requester, peer = world.clients[0], world.clients[1]

    # The instant the peer hears the search, the requester's radio dies.
    original = peer._on_request

    def crash_then_handle(message):
        requester.crash()
        original(message)

    peer._on_request = crash_then_handle
    world.access(0, 7)
    # The reply could not be delivered, the search timed out, and the MSS
    # was out of reach too: the access fails outright.
    assert world.outcome_counts() == {"FAILURE": 1}
    assert world.network.failed_unicasts >= 1
    assert requester._searches == {}  # search state cleaned up


def test_relay_dying_mid_route_falls_back_to_server():
    world = World(CHAIN, scheme=CachingScheme.CC, hop_dist=2)
    world.give_item(2, item=9)
    requester, relay = world.clients[0], world.clients[1]

    # The relay forwarded the reply, then dies before the retrieve.
    original = requester._on_reply

    def crash_relay_then_handle(message):
        relay.crash()
        original(message)

    requester._on_reply = crash_relay_then_handle
    world.access(0, 9)
    # The retrieve's first hop is dead, so the search yields nothing and
    # the requester (still connected) falls back to the MSS.
    assert world.outcome_counts() == {"SERVER": 1}
    assert world.metrics.mss_fallbacks == 1
    assert world.network.failed_unicasts >= 1


def test_crash_and_recover_cycle():
    world = World(NEAR, scheme=CachingScheme.GC)
    client = world.clients[1]
    client.crash()
    assert not client.connected
    assert not world.network.is_connected(1)
    world.env.process(client.recover())
    world.env.run(until=5.0)
    assert client.connected
    assert world.network.is_connected(1)
    assert client.last_server_contact > 0.0  # GroCoCa membership resync ran
    assert client.crashes == 1
    assert client.disconnections == 0


# -- scripted message loss ----------------------------------------------------


def test_lost_request_recovered_by_refloood():
    world = World(NEAR, scheme=CachingScheme.CC, search_retry_limit=1)
    world.give_item(1, item=7)
    # Drop exactly the first delivery (the REQUEST reaching the peer).
    world.network.faults = ScriptedFaults([True])
    world.access(0, 7)
    assert world.outcome_counts() == {"GLOBAL_HIT": 1}
    assert world.metrics.retries["search"] == 1
    assert world.metrics.mss_fallbacks == 0


def test_lost_reply_is_not_double_served_on_refloood():
    world = World(NEAR, scheme=CachingScheme.CC, search_retry_limit=1)
    world.give_item(1, item=7)
    # REQUEST passes, the REPLY back to host 0 is lost.  The re-flood is
    # suppressed by the peer's seen-sequence table (no second reply), so
    # the requester ends at the MSS with exactly one recorded request.
    world.network.faults = ScriptedFaults([False, True])
    world.access(0, 7)
    assert world.outcome_counts() == {"SERVER": 1}
    assert world.metrics.requests == 1
    assert world.metrics.retries["search"] == 1
    assert world.metrics.mss_fallbacks == 1


def test_failed_retrieve_fails_over_to_next_replier():
    triangle = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0)]
    world = World(triangle, scheme=CachingScheme.CC, retrieve_retry_limit=1)
    world.give_item(1, item=7)
    world.give_item(2, item=7)

    # The first replier (host 1: handlers run in index order) evicts its
    # copy the moment it has replied, so the retrieve aimed at it starves.
    original_send_reply = world.clients[1].send_reply

    def reply_then_evict(request, entry):
        def evict(_sent):
            if 7 in world.clients[1].cache:
                world.clients[1].cache.evict(7)

        original_send_reply(request, entry).add_callback(evict)

    world.clients[1].send_reply = reply_then_evict
    world.access(0, 7)
    assert world.outcome_counts() == {"GLOBAL_HIT": 1}
    assert world.metrics.retries["retrieve"] == 1
    assert world.metrics.mss_fallbacks == 0


def test_without_retry_budget_failed_retrieve_ends_at_server():
    world = World(NEAR, scheme=CachingScheme.CC)  # retrieve_retry_limit=0
    world.give_item(1, item=7)
    original_send_reply = world.clients[1].send_reply

    def reply_then_evict(request, entry):
        def evict(_sent):
            if 7 in world.clients[1].cache:
                world.clients[1].cache.evict(7)

        original_send_reply(request, entry).add_callback(evict)

    world.clients[1].send_reply = reply_then_evict
    world.access(0, 7)
    assert world.outcome_counts() == {"SERVER": 1}
    assert world.metrics.retries["retrieve"] == 0
    assert world.metrics.mss_fallbacks == 1
