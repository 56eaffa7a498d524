"""Tests for the server channels and the P2P medium."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import MobilityField, StationaryTrajectory
from repro.net import (
    Message,
    MessageKind,
    P2PNetwork,
    PowerLedger,
    PowerModel,
    ServerChannel,
)
from repro.net.faults import FaultInjector, FaultPlan, LinkFaults
from repro.net.power import PURPOSES
from repro.sim import Environment
from repro.sim.random import RandomStreams
from tests._resource_reference import Resource


# -- message basics -----------------------------------------------------------


def test_message_positive_size_required():
    """`size <= 0` is False for NaN, and a NaN air time would leave every
    radio in range deaf for good (nothing is later than a NaN horizon)."""
    for bad in (0, -1, float("nan")):
        with pytest.raises(ValueError, match=str(bad)):
            Message(MessageKind.REQUEST, 0, None, bad)


def test_messages_share_no_state():
    """No counter, no shared default: two messages built alike are equal,
    distinct objects with their own payload and path."""
    a = Message(MessageKind.REQUEST, 0, None, 10)
    b = Message(MessageKind.REQUEST, 0, None, 10)
    assert a == b and a is not b
    a.payload["marker"] = 1
    a.path.append(3)
    assert b.payload == {} and b.path == []


def test_message_sizes_helpers():
    from repro.net import MessageSizes

    sizes = MessageSizes(data=3072, header=32)
    assert sizes.data_message() == 3104
    assert sizes.server_reply(membership_changes=3) == 3104 + 3 * 8
    assert sizes.sig_reply(100) == 132


# -- server channel -----------------------------------------------------------


def test_server_channel_transfer_times():
    env = Environment()
    channel = ServerChannel(env, downlink_bps=8000.0, uplink_bps=800.0)
    assert channel.downlink_time(1000) == pytest.approx(1.0)
    assert channel.uplink_time(100) == pytest.approx(1.0)


def test_server_channel_fcfs_queueing():
    env = Environment()
    channel = ServerChannel(env, downlink_bps=8000.0, uplink_bps=8000.0)
    done = []

    def sender(tag):
        yield from channel.send_downlink(1000)  # 1 s each
        done.append((tag, env.now))

    for tag in range(3):
        env.process(sender(tag))
    env.run()
    assert done == [(0, 1.0), (1, 2.0), (2, 3.0)]
    assert channel.bytes_down == 3000


def test_server_channel_up_and_down_independent():
    env = Environment()
    channel = ServerChannel(env, downlink_bps=8000.0, uplink_bps=8000.0)
    log = []

    def up():
        yield from channel.send_uplink(1000)
        log.append(("up", env.now))

    def down():
        yield from channel.send_downlink(1000)
        log.append(("down", env.now))

    env.process(up())
    env.process(down())
    env.run()
    assert sorted(log) == [("down", 1.0), ("up", 1.0)]


def test_server_channel_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        ServerChannel(Environment(), 0, 100)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_server_channel_rejects_non_finite_bandwidth_by_name(bad):
    """A NaN bandwidth used to construct and leave a NaN timeout behind."""
    for downlink, uplink in ((bad, 1000.0), (1000.0, bad)):
        with pytest.raises(ValueError, match="bandwidths must be positive and finite"):
            ServerChannel(Environment(), downlink, uplink)


def test_server_channel_request_counters_and_queue_wait():
    env = Environment()
    channel = ServerChannel(env, downlink_bps=8000.0, uplink_bps=8000.0)

    def sender():
        yield from channel.send_downlink(1000)  # 1 s each

    for _ in range(3):
        env.process(sender())
    env.run()
    # Three back-to-back 1 s holds: the queue waits are 0, 1 and 2 s.
    assert channel.downlink_requests == 3
    assert channel.uplink_requests == 0
    assert channel.downlink_wait == pytest.approx(3.0)
    assert channel.downlink_mean_wait == pytest.approx(1.0)
    assert channel.uplink_mean_wait == 0.0  # no requests -> no division
    assert channel.downlink_drops == 0 and channel.uplink_drops == 0


def test_server_channel_injected_loss_counts_drops():
    env = Environment()
    injector = FaultInjector(
        FaultPlan(uplink=LinkFaults(loss=1.0)), RandomStreams(1), n_hosts=4
    )
    channel = ServerChannel(
        env, downlink_bps=8000.0, uplink_bps=8000.0, faults=injector
    )
    outcomes = []

    def up():
        sent = yield from channel.send_uplink(1000)
        outcomes.append(sent)

    def down():
        received = yield from channel.send_downlink(1000)
        outcomes.append(received)

    env.process(up())
    env.process(down())
    env.run()
    # The uplink message occupied the link, then was lost; the fault-free
    # downlink delivered.
    assert sorted(outcomes) == [False, True]
    assert channel.uplink_drops == 1 and channel.downlink_drops == 0
    assert channel.bytes_up == 1000  # the transmission still happened
    assert env.now == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [-1, -0.5, float("nan")])
@pytest.mark.parametrize("link", ["uplink", "downlink"])
def test_server_channel_rejects_bad_size_before_touching_any_state(link, bad):
    env = Environment()
    channel = ServerChannel(env, downlink_bps=8000.0, uplink_bps=8000.0)
    send = channel.send_uplink if link == "uplink" else channel.send_downlink
    outcomes = []

    def sender(size):
        outcomes.append((yield from send(size)))

    with pytest.raises(ValueError, match=str(bad)):
        next(send(bad))
    assert channel.uplink_requests == channel.downlink_requests == 0
    assert channel.bytes_up == channel.bytes_down == 0
    assert env.pending_events == 0
    # The busy horizon is untouched: the next send starts at once.
    env.process(sender(1000))
    env.run()
    assert outcomes == [True] and env.now == 1.0
    assert channel.uplink_wait == channel.downlink_wait == 0.0


@pytest.mark.parametrize("link", ["uplink", "downlink"])
def test_an_infinite_size_does_not_poison_the_link(link):
    """An ``inf`` size is refused before the busy horizon moves, so the
    link is not left busy for ever: the next send is served on time."""
    env = Environment()
    channel = ServerChannel(env, downlink_bps=8000.0, uplink_bps=8000.0)
    send = channel.send_uplink if link == "uplink" else channel.send_downlink
    with pytest.raises(ValueError, match="inf"):
        next(send(math.inf))
    assert (channel.uplink_requests, channel.bytes_up) == (0, 0)
    assert (channel.downlink_requests, channel.bytes_down) == (0, 0)
    outcomes = []

    def sender():
        yield env.timeout(0.5)
        outcomes.append((yield from send(100)))

    env.process(sender())
    env.run()
    # 100 bytes at 8000 bit/s hold the link 0.1 s, from the arrival on.
    assert outcomes == [True] and env.now == 0.5 + 0.1
    sent = (channel.uplink_requests, channel.bytes_up)
    if link == "downlink":
        sent = (channel.downlink_requests, channel.bytes_down)
    assert sent == (1, 100)


# -- busy horizon vs. the Resource-per-link design it replaced ---------------


class _ResourceChannel(ServerChannel):
    """Reference: each link a capacity-1 :class:`Resource`, two kernel
    events per message.  ``send_downlink``, ``send_uplink``, their ``_send``
    helper and the queue-length properties are the pre-horizon bodies,
    verbatim."""

    def __init__(self, env, downlink_bps, uplink_bps, faults=None):
        super().__init__(env, downlink_bps, uplink_bps, faults=faults)
        self._downlink = Resource(env, capacity=1)
        self._uplink = Resource(env, capacity=1)

    def _send(self, resource, hold_time):
        queued_at = self.env.now
        grant = resource.request()
        yield grant
        waited = self.env.now - queued_at
        try:
            yield self.env.timeout(hold_time)
        finally:
            resource.release(grant)
        return waited

    def send_downlink(self, size_bytes):
        self.downlink_requests += 1
        self.bytes_down += size_bytes
        waited = yield from self._send(
            self._downlink, self.downlink_time(size_bytes)
        )
        self.downlink_wait += waited
        if self.faults is not None and self.faults.drop_downlink():
            self.downlink_drops += 1
            return False
        return True

    def send_uplink(self, size_bytes):
        self.uplink_requests += 1
        self.bytes_up += size_bytes
        waited = yield from self._send(self._uplink, self.uplink_time(size_bytes))
        self.uplink_wait += waited
        if self.faults is not None and self.faults.drop_uplink():
            self.uplink_drops += 1
            return False
        return True

    @property
    def downlink_queue_length(self):
        return self._downlink.queue_length

    @property
    def uplink_queue_length(self):
        return self._uplink.queue_length


def _drive_channel(channel_class, sends, probes, lossy):
    """Run one arrival schedule; return everything observable about it."""
    env = Environment()
    faults = None
    if lossy:
        plan = FaultPlan(uplink=LinkFaults(loss=0.3), downlink=LinkFaults(loss=0.3))
        faults = FaultInjector(plan, RandomStreams(7), n_hosts=1)
    # 8000 bit/s: 1000 bytes hold a link for exactly one second.
    channel = channel_class(env, downlink_bps=8000.0, uplink_bps=8000.0, faults=faults)
    completions = {"up": [], "down": []}
    lengths = []

    def sender(tag, arrive, link, size):
        yield env.timeout(arrive)
        if link == "up":
            delivered = yield from channel.send_uplink(size)
            wait_so_far = channel.uplink_wait
        else:
            delivered = yield from channel.send_downlink(size)
            wait_so_far = channel.downlink_wait
        # The running total moves by this sender's wait, so comparing it at
        # every completion pins each individual wait.
        completions[link].append((env.now, tag, delivered, wait_so_far))

    def probe(at):
        yield env.timeout(at)
        lengths.append(
            (env.now, channel.uplink_queue_length, channel.downlink_queue_length)
        )

    for tag, (arrive, link, size) in enumerate(sends):
        env.process(sender(tag, arrive, link, size))
    for at in probes:
        env.process(probe(at))
    env.run()
    counters = {
        name: getattr(channel, name)
        for name in (
            "uplink_requests", "downlink_requests", "uplink_drops", "downlink_drops",
            "uplink_wait", "downlink_wait", "bytes_up", "bytes_down",
            "uplink_queue_length", "downlink_queue_length",
        )
    }  # fmt: skip
    return completions, lengths, counters, env.now, env.events_processed


# Sizes include 0 and whole seconds of air time (so departures land on the
# integer grid and tie with arrivals and probes) next to the protocol's own.
_SIZES = st.sampled_from([0, 0, 1000, 1000, 2000, 500, 96, 3072, 1])
_LINKS = st.sampled_from(["up", "down"])
_CONTINUOUS = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)
_GRID = st.integers(min_value=0, max_value=8).map(float)


@given(
    st.one_of(
        st.lists(st.tuples(_CONTINUOUS, _LINKS, _SIZES), max_size=40),
        st.lists(st.tuples(_GRID, _LINKS, _SIZES), max_size=40),
    ),
    st.lists(st.one_of(_CONTINUOUS, _GRID), max_size=12),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_busy_horizon_matches_resource_per_link_bit_for_bit(sends, probes, lossy):
    new = _drive_channel(ServerChannel, sends, probes, lossy)
    old = _drive_channel(_ResourceChannel, sends, probes, lossy)
    # Per link: same senders in the same order at the same instants (==, not
    # approx), same delivery verdicts, same waits; same queue lengths at
    # every probe, ties with arrivals and departures included.  The order
    # *across* links at one shared instant is deliberately not compared: a
    # departure's seq is now drawn on arrival instead of on grant, and the
    # two links share no state that could observe it.
    assert new[:4] == old[:4]
    # One kernel event per message instead of two.
    assert old[4] - new[4] == len(sends)


# -- p2p fixtures ---------------------------------------------------------------


def make_net(points, bandwidth=8000.0, tran_range=50.0):
    env = Environment()
    field = MobilityField([StationaryTrajectory(p) for p in points])
    ledger = PowerLedger(len(points))
    net = P2PNetwork(env, field, bandwidth, tran_range, ledger, PowerModel())
    return env, net, ledger


LINE = [(0.0, 0.0), (40.0, 0.0), (80.0, 0.0), (500.0, 0.0)]


def test_broadcast_reaches_in_range_only():
    env, net, _ = make_net(LINE)
    received = []
    for node in range(4):
        net.register_handler(node, lambda m, n=node: received.append(n))

    net.broadcast(0, Message(MessageKind.REQUEST, 0, None, 100))
    env.run()
    assert received == [1]


def test_broadcast_air_time_advances_clock():
    env, net, _ = make_net(LINE, bandwidth=8000.0)
    times = []
    net.register_handler(1, lambda m: times.append(env.now))
    net.broadcast(0, Message(MessageKind.REQUEST, 0, None, 1000))
    env.run()
    assert times == [pytest.approx(1.0)]  # 1000 B * 8 / 8000 bps


def test_broadcast_power_accounting():
    env, net, ledger = make_net(LINE)
    size = 100
    net.broadcast(0, Message(MessageKind.REQUEST, 0, None, size))
    env.run()
    model = net.model
    assert ledger.host_total(0) == pytest.approx(model.bc_send(size))
    assert ledger.host_total(1) == pytest.approx(model.bc_recv(size))
    assert ledger.host_total(2) == 0.0  # out of range
    assert ledger.host_total(3) == 0.0


def test_broadcast_skips_disconnected_receiver():
    env, net, _ = make_net(LINE)
    received = []
    net.register_handler(1, lambda m: received.append(1))
    net.set_connected(1, False)
    net.broadcast(0, Message(MessageKind.REQUEST, 0, None, 64))
    env.run()
    assert received == []


def test_broadcast_by_disconnected_sender_is_noop():
    env, net, ledger = make_net(LINE)
    received = []
    net.register_handler(1, received.append)
    net.set_connected(0, False)
    net.broadcast(0, Message(MessageKind.REQUEST, 0, None, 64))
    env.run()
    assert received == [] and net.broadcasts == 0
    assert ledger.total() == 0.0


def test_unicast_delivery_and_power():
    # Geometry: 0-1 in range; 2 in range of both 0 and 1; 3 far away.
    points = [(0.0, 0.0), (30.0, 0.0), (15.0, 20.0), (500.0, 0.0)]
    env, net, ledger = make_net(points, tran_range=50.0)
    received = []
    net.register_handler(1, received.append)
    size = 200
    message = Message(MessageKind.DATA, 0, 1, size)
    sent = net.unicast(0, 1, message)
    env.run()
    assert sent.value is True
    model = net.model
    assert len(received) == 1 and received[0] is message
    assert ledger.host_total(0) == pytest.approx(model.ptp_send(size))
    assert ledger.host_total(1) == pytest.approx(model.ptp_recv(size))
    assert ledger.host_total(2) == pytest.approx(model.ptp_discard_sd(size))
    assert ledger.host_total(3) == 0.0


def test_unicast_discard_source_only_and_dest_only():
    # 0 -> 1 at distance 40.  Node 2 near 0 only; node 3 near 1 only.
    points = [(0.0, 0.0), (40.0, 0.0), (-30.0, 0.0), (70.0, 0.0)]
    env, net, ledger = make_net(points, tran_range=45.0)
    net.unicast(0, 1, Message(MessageKind.DATA, 0, 1, 100))
    env.run()
    model = net.model
    assert ledger.host_total(2) == pytest.approx(model.ptp_discard_s(100))
    assert ledger.host_total(3) == pytest.approx(model.ptp_discard_d(100))


# Geometry A: 0-1 in range, 2 in range of both, 3 far away (range 50).
BOTH = [(0.0, 0.0), (30.0, 0.0), (15.0, 20.0), (500.0, 0.0)]
# Geometry B: 0 -> 1 at 40 m, 2 near the source only, 3 near the
# destination only (range 45).
SPLIT = [(0.0, 0.0), (40.0, 0.0), (-30.0, 0.0), (70.0, 0.0)]


@pytest.mark.parametrize(
    "points, tran_range, size, down, delivered, charges",
    [
        (BOTH, 50.0, 200, (), True, [834.0, 456.0, 70.0, 0.0]),
        (SPLIT, 45.0, 100, (), True, [644.0, 406.0, 24.0, 56.0]),
        (BOTH, 50.0, 200, (2,), True, [834.0, 456.0, 0.0, 0.0]),  # sd bystander off
        (SPLIT, 45.0, 100, (3,), True, [644.0, 406.0, 24.0, 0.0]),  # d bystander off
        # Destination off the air: the frame still goes out, and the hosts
        # around the destination's position are charged as before.
        (SPLIT, 45.0, 100, (1,), False, [644.0, 0.0, 24.0, 56.0]),
    ],
)
def test_unicast_bystander_classes_exact(
    points, tran_range, size, down, delivered, charges
):
    """The per-host Table I charges recorded before the bystander partition
    moved from scratch masks to adjacency rows."""
    env, net, ledger = make_net(points, tran_range=tran_range)
    for node in down:
        net.set_connected(node, False)
    sent = net.unicast(0, 1, Message(MessageKind.DATA, 0, 1, size))
    env.run()
    assert sent.value is delivered
    assert ledger.per_host_totals().tolist() == charges
    assert net.failed_unicasts == (0 if delivered else 1)


def test_neighbors_follow_connectivity_flips_within_a_bucket():
    """``connected`` is applied per frame: no stale memo, no geometry rebuild."""
    env = Environment()
    field = MobilityField([StationaryTrajectory(p) for p in LINE], resolution=0.1)
    net = P2PNetwork(env, field, 8000.0, 50.0, PowerLedger(len(LINE)))
    heard = []
    for node in range(len(LINE)):
        net.register_handler(node, lambda m, node=node: heard[-1].append(node))

    def frame():
        # One byte holds the air for 1 ms: four frames fit in one bucket.
        heard.append([])
        net.broadcast(1, Message(MessageKind.REQUEST, 1, None, 1))
        env.run()

    frame()
    builds = field.adjacency_builds
    net.set_connected(2, False)
    frame()
    net.set_connected(0, False)
    frame()
    net.set_connected(0, True)
    net.set_connected(2, True)
    frame()
    assert heard == [[0, 2], [0], [], [0, 2]]
    assert env.now < 0.1
    assert field.adjacency_builds == builds  # all of it from one snapshot


def test_rejected_message_leaves_the_medium_untouched():
    """The size check sits in ``Message``, ahead of the network: a NaN size
    used to reach ``broadcast``, which wrote NaN into every in-range busy
    horizon before the ledger refused the charge."""
    env, net, ledger = make_net(LINE)
    horizons = list(net._busy_until)
    charges = {purpose: ledger.per_host(purpose) for purpose in PURPOSES}
    with pytest.raises(ValueError, match="nan"):
        net.broadcast(0, Message(MessageKind.REQUEST, 0, None, float("nan")))
    env.run()
    assert net._busy_until == horizons
    assert {purpose: ledger.per_host(purpose) for purpose in PURPOSES} == charges
    assert (net.broadcasts, net.unicasts, net.failed_unicasts) == (0, 0, 0)
    assert env.pending_events == 0


def test_unicast_out_of_range_fails_but_costs_sender():
    env, net, ledger = make_net(LINE)
    sent = net.unicast(0, 3, Message(MessageKind.DATA, 0, 3, 100))
    env.run()
    assert sent.value is False
    assert net.failed_unicasts == 1
    assert ledger.host_total(0) > 0


def test_unicast_to_self_rejected():
    env, net, _ = make_net(LINE)
    with pytest.raises(ValueError, match="no hop to itself"):
        net.unicast(0, 0, Message(MessageKind.DATA, 0, 0, 10))
    with pytest.raises(ValueError, match="no hop to itself"):
        net.unicast_route([0, 1, 1], Message(MessageKind.DATA, 0, 1, 10))
    assert env.pending_events == 0 and net.unicasts == 0


def test_medium_contention_serialises_nearby_senders():
    # Nodes 0 and 1 are in range: 1 hears 0's transmission and must defer.
    points = [(0.0, 0.0), (30.0, 0.0), (60.0, 0.0)]
    env, net, _ = make_net(points, bandwidth=8000.0, tran_range=50.0)
    ends = {}

    def sender(node, dst):
        sent = yield net.unicast(node, dst, Message(MessageKind.DATA, node, dst, 1000))
        assert sent
        ends[node] = env.now

    env.process(sender(0, 1))
    env.process(sender(1, 2))
    env.run()
    assert ends[0] == pytest.approx(1.0)
    assert ends[1] == pytest.approx(2.0)  # deferred behind 0's transmission


def test_far_senders_transmit_concurrently():
    points = [(0.0, 0.0), (30.0, 0.0), (1000.0, 0.0), (1030.0, 0.0)]
    env, net, _ = make_net(points, bandwidth=8000.0, tran_range=50.0)
    ends = {}

    def sender(node, dst):
        yield net.unicast(node, dst, Message(MessageKind.DATA, node, dst, 1000))
        ends[node] = env.now

    env.process(sender(0, 1))
    env.process(sender(2, 3))
    env.run()
    assert ends[0] == pytest.approx(1.0)
    assert ends[2] == pytest.approx(1.0)


def test_unicast_route_multi_hop():
    points = [(0.0, 0.0), (40.0, 0.0), (80.0, 0.0)]
    env, net, _ = make_net(points, tran_range=50.0)
    delivered = []
    net.register_handler(1, lambda m: delivered.append(("relay", m.payload["marker"])))
    net.register_handler(2, lambda m: delivered.append(("final", m.payload["marker"])))

    sent = net.unicast_route(
        [0, 1, 2], Message(MessageKind.DATA, 0, 2, 100, payload={"marker": "x"})
    )
    env.run()
    assert sent.value is True
    # Only the final destination's handler fires; the relay is transparent.
    assert delivered == [("final", "x")]


def test_unicast_route_fails_when_hop_breaks():
    points = [(0.0, 0.0), (40.0, 0.0), (500.0, 0.0)]
    env, net, _ = make_net(points, tran_range=50.0)
    sent = net.unicast_route([0, 1, 2], Message(MessageKind.DATA, 0, 2, 100))
    env.run()
    assert sent.value is False
    assert net.failed_unicasts == 1


def test_unicast_route_validates_path():
    env, net, _ = make_net(LINE)
    with pytest.raises(ValueError):
        net.unicast_route([0], Message(MessageKind.DATA, 0, 0, 10))


HUDDLE = [(0.0, 0.0), (20.0, 0.0), (40.0, 0.0)]


@pytest.mark.parametrize("bad", [-1, 3, 7])
def test_broadcast_from_an_unknown_host_is_rejected_at_the_call(bad):
    # -1 used to transmit as host 2 (hosts 0 and 1 heard it, 2 was charged).
    env, net, ledger = make_net(HUDDLE)
    heard = []
    for node in range(3):
        net.register_handler(node, lambda m, node=node: heard.append(node))
    with pytest.raises(ValueError, match=f"no host {bad}: hosts are 0..2"):
        net.broadcast(bad, Message(MessageKind.REQUEST, 0, None, 64))
    env.run()
    assert heard == [] and net.broadcasts == 0 and ledger.total() == 0.0
    assert env.events_processed == 0


@pytest.mark.parametrize("path", [[0, 3], [0, -1], [-3, 1], [0, 1, 9], [5, 0, 1]])
def test_route_through_an_unknown_host_is_rejected_at_the_call(path):
    env, net, ledger = make_net(HUDDLE)
    # A busy sender used to defer the bad hop into env.run().
    net.broadcast(0, Message(MessageKind.REQUEST, 0, None, 1000))
    with pytest.raises(ValueError, match="no host"):
        net.unicast_route(path, Message(MessageKind.DATA, path[0], path[-1], 10))
    env.run()
    assert net.unicasts == 0 and net.broadcasts == 1


@pytest.mark.parametrize("bad", [-1, 3])
def test_host_wiring_rejects_unknown_hosts(bad):
    env, net, _ = make_net(HUDDLE)
    with pytest.raises(ValueError, match=f"no host {bad}"):
        net.register_handler(bad, lambda m: None)
    with pytest.raises(ValueError, match=f"no host {bad}"):
        net.set_connected(bad, False)
    with pytest.raises(ValueError, match=f"no host {bad}"):
        net.watch_down(bad, env.event())
    assert net.connected == [True, True, True]
    assert net._handlers == [None, None, None]


def test_network_validates_parameters():
    env = Environment()
    field = MobilityField([StationaryTrajectory((0, 0))])
    ledger = PowerLedger(1)
    with pytest.raises(ValueError):
        P2PNetwork(env, field, 0, 50.0, ledger)
    with pytest.raises(ValueError):
        P2PNetwork(env, field, 100.0, 0, ledger)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_network_rejects_non_finite_parameters_by_name(bad):
    """A NaN bandwidth or range used to construct and fail at the first
    frame (a NaN timeout, or ``radius must be >= 0``)."""
    env = Environment()
    field = MobilityField([StationaryTrajectory((0, 0))])
    ledger = PowerLedger(1)
    with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
        P2PNetwork(env, field, bad, 100.0, ledger)
    with pytest.raises(ValueError, match="transmission range must be positive and finite"):
        P2PNetwork(env, field, 1000.0, bad, ledger)
