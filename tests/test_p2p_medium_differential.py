"""The P2P medium's callback frames against the generator medium they replaced.

``tests/_p2p_reference.py`` keeps an earlier revision's mask-based
``broadcast`` and ``unicast``, its ndarray ``PowerLedger`` (with
``charge_where``), and the generator ``_wait_medium`` and
``unicast_route``, verbatim.  The test drives ``src/`` and that reference
through the same traffic and requires ``==`` (floats included, no
tolerance) on everything a run could observe, after every step: every
per-host, per-purpose ledger value, every busy horizon, every delivery,
every unicast's outcome and the instant it resolved, every counter and the
kernel's event count (``events_processed``: a bare call and an event each
count one pop).  Each side starts a send the way its client does: a
reference send in a process of its own (one bootstrap event), a frame in a
zero-delay bare call (``Environment.call_later``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import MobilityField, Rectangle, StationaryTrajectory
from repro.mobility.waypoint import RandomWaypointTrajectory
from repro.net import Message, MessageKind, P2PNetwork, PowerLedger
from repro.net.faults import FaultInjector, FaultPlan, LinkFaults
from repro.net.power import PURPOSES
from repro.sim import Environment
from repro.sim.random import RandomStreams
from tests._p2p_reference import MaskChargedLedger, MaskP2PNetwork

BANDWIDTH = 8000.0  # 1000 bytes hold the air for exactly one second
TRAN_RANGE = 100.0
#: name -> (square side in metres, moving).  "apart" puts every host on its
#: own 1 km grid point (no frame is ever heard); "line" spaces them 70 m
#: apart on a line (a host hears its two neighbours, so a unicast two hops
#: along is out of range and has bystanders at both ends); "huddle" keeps
#: all of them inside one transmission range.
TOPOLOGIES = {
    "apart": (None, False),
    "line": (None, False),
    "huddle": (60.0, False),
    "static": (350.0, False),
    "moving": (350.0, True),
}


class Side:
    """One medium (new or reference) with everything the other must match."""

    def __init__(self, network_type, ledger_type, n_hosts, topology, seed, lossy):
        side_length, moving = TOPOLOGIES[topology]
        rng = np.random.default_rng(seed)
        if side_length is None:
            spacing = 70.0 if topology == "line" else 1000.0
            trajectories = [StationaryTrajectory((spacing * i, 0.0)) for i in range(n_hosts)]
        elif moving:
            # Fast enough that neighbourhoods change within a few steps.
            area = Rectangle(side_length, side_length)
            trajectories = [
                RandomWaypointTrajectory(rng, area, 20.0, 60.0, pause_time=0.1)
                for _ in range(n_hosts)
            ]
        else:
            trajectories = [
                StationaryTrajectory(tuple(rng.uniform(0.0, side_length, 2)))
                for _ in range(n_hosts)
            ]
        self.env = Environment()
        self.ledger = ledger_type(n_hosts)
        self.faults = None
        if lossy:
            plan = FaultPlan(p2p=LinkFaults(loss=0.3))
            self.faults = FaultInjector(plan, RandomStreams(seed), n_hosts)
        self.net = network_type(
            self.env,
            MobilityField(trajectories, resolution=0.05),
            BANDWIDTH,
            TRAN_RANGE,
            self.ledger,
            faults=self.faults,
        )
        self.heard = []  # (time, receiver, message) per handler call
        self.returned = []  # (time, step, delivered flag) per unicast or route
        for node in range(n_hosts):
            self.net.register_handler(node, lambda m, node=node: self._on_message(node, m))

    def _on_message(self, node, message):
        self.heard.append((self.env.now, node, message))
        # A handler that takes a host off the air while the frame is still
        # being handed out: later receivers of the same frame must miss it.
        victim = message.payload.get("kills")
        if victim is not None:
            self.net.set_connected(victim, False)

    def record(self, step, value):
        self.returned.append((self.env.now, step, value))

    def send(self, step, start):
        """Start ``start(network)`` as this side's client would.  A unicast's
        outcome is recorded at the instant it resolves; a broadcast's
        receivers are in ``heard``."""
        if isinstance(self.net, MaskP2PNetwork):

            def process():
                value = yield from start(self.net)
                if type(value) is bool:
                    self.record(step, value)

            self.env.process(process())
        else:

            def call():
                sent = start(self.net)
                if sent is not None:
                    sent.add_callback(lambda done: self.record(step, done.value))

            self.env.call_later(0.0, call)

    def apply(self, step, op, message):
        net = self.net
        kind = op[0]
        if kind == "broadcast":
            _, src, _, purpose, signature_bytes, _ = op
            self.send(
                step, lambda net: net.broadcast(src, message, purpose, signature_bytes)
            )
        elif kind == "unicast":
            _, src, dst, _ = op
            self.send(step, lambda net: net.unicast(src, dst, message))
        elif kind == "route":
            self.send(step, lambda net: net.unicast_route(list(op[1]), message))
        elif kind == "flip":
            net.set_connected(op[1], op[2])
        else:  # "advance"; 0.0 runs what is due now and leaves the clock alone
            self.env.run(until=self.env.now + op[1])


def build_message(op):
    kind = op[0]
    if kind == "broadcast":
        _, src, size, _, _, kills = op
        payload = {} if kills is None else {"kills": kills}
        return Message(MessageKind.REQUEST, src, None, size, payload=payload)
    if kind == "unicast":
        return Message(MessageKind.DATA, op[1], op[2], op[3])
    if kind == "route":
        return Message(MessageKind.REPLY, op[1][0], op[1][-1], op[2])
    return None


def assert_same(new, old):
    assert len(new.heard) == len(old.heard)
    for (t_new, node_new, m_new), (t_old, node_old, m_old) in zip(new.heard, old.heard):
        assert (t_new, node_new) == (t_old, node_old) and m_new is m_old
    assert new.returned == old.returned
    assert new.net._busy_until == old.net._busy_until
    for purpose in PURPOSES:
        charges = new.ledger.per_host(purpose)
        assert charges == old.ledger.per_host(purpose)
        assert all(type(charge) is float for charge in charges)
    for counter in ("broadcasts", "unicasts", "failed_unicasts"):
        assert getattr(new.net, counter) == getattr(old.net, counter)
    assert new.net.connected == old.net.connected.tolist()
    assert all(type(up) is bool for up in new.net.connected)
    if new.faults is not None:
        assert new.faults.counters() == old.faults.counters()
    assert new.env.events_processed == old.env.events_processed
    assert new.env.pending_events == old.env.pending_events
    assert new.env.now == old.env.now
    assert type(new.env.now) is float
    assert all(type(horizon) is float for horizon in new.net._busy_until)


SIZES = st.sampled_from([1, 50, 50, 100, 100, 1000, 64, 3104])


@st.composite
def scenarios(draw):
    n_hosts = draw(st.integers(2, 30))
    # Half the draws come from the first three hosts, so the same radios
    # keep contending and a flip often lands on a host with a frame in flight.
    host = st.one_of(st.integers(0, min(2, n_hosts - 1)), st.integers(0, n_hosts - 1))
    # Added modulo N, so never the same host; biased the same way.
    other = st.one_of(st.integers(1, min(2, n_hosts - 1)), st.integers(1, n_hosts - 1))
    broadcast = st.builds(
        # The piggybacked signature bytes are none, half or all of the frame.
        lambda src, size, purpose, halves, kills: (
            "broadcast", src, size, purpose, size * halves // 2, kills
        ),
        host,
        SIZES,
        st.sampled_from(["data", "data", "signature", "beacon"]),
        st.sampled_from([0, 0, 1, 2]),
        st.one_of(st.none(), st.none(), host),
    )
    unicast = st.builds(
        lambda src, hop, size: ("unicast", src, (src + hop) % n_hosts, size),
        host,
        other,
        SIZES,
    )
    route = st.builds(
        lambda src, hops, size: (
            "route",
            tuple((src + sum(hops[:i])) % n_hosts for i in range(len(hops) + 1)),
            size,
        ),
        host,
        st.lists(other, min_size=1, max_size=3),
        SIZES,
    )
    flip = st.tuples(st.just("flip"), host, st.booleans())
    # Whole air times (so contenders wake at the same instant as other
    # frames end), fractions of one (so flips land mid-frame), and zero.
    advance = st.tuples(
        st.just("advance"),
        st.one_of(
            st.sampled_from([0.0, 0.001, 0.05, 0.1, 0.5, 1.0, 3.104]),
            st.floats(0.0, 4.0, allow_nan=False),
        ),
    )
    ops = draw(
        st.lists(
            st.one_of(broadcast, broadcast, unicast, unicast, route, flip, advance),
            min_size=3,
            max_size=40,
        )
    )
    return (
        n_hosts,
        draw(st.sampled_from(sorted(TOPOLOGIES))),
        draw(st.integers(0, 2**31)),
        draw(st.booleans()),
        ops,
    )


@given(scenarios())
@settings(max_examples=200, deadline=None)
def test_list_horizon_medium_matches_ndarray_medium(scenario):
    n_hosts, topology, seed, lossy, ops = scenario
    new = Side(P2PNetwork, PowerLedger, n_hosts, topology, seed, lossy)
    old = Side(MaskP2PNetwork, MaskChargedLedger, n_hosts, topology, seed, lossy)
    for step, op in enumerate(ops):
        message = build_message(op)  # one object, handed to both sides
        new.apply(step, op, message)
        old.apply(step, op, message)
        assert_same(new, old)
    for side in (new, old):  # drain: every deferred sender gets its turn
        side.env.run()
    assert_same(new, old)


def test_contenders_waking_together_repoll_on_both_sides():
    """The CSMA re-poll is kept: three senders in one huddle, started at the
    same instant, each wake at the first frame's end and all but one defer
    again — same wake-ups, same order, same event count."""
    sides = [
        Side(P2PNetwork, PowerLedger, 4, "huddle", 3, lossy=False),
        Side(MaskP2PNetwork, MaskChargedLedger, 4, "huddle", 3, lossy=False),
    ]
    frames = [Message(MessageKind.REQUEST, src, None, 1000) for src in (0, 1, 2)]
    for side in sides:
        for step, frame in enumerate(frames):
            side.send(step, lambda net, frame=frame: net.broadcast(frame.src, frame))
        side.env.run()
    new, old = sides
    assert_same(new, old)
    heard_by_3 = [(t, m.src) for t, node, m in new.heard if node == 3]
    assert heard_by_3 == [(1.0, 0), (2.0, 1), (3.0, 2)]
    # 3 starts + 3 air-time timeouts + the re-polls: sender 1 waits
    # once, sender 2 waits at t=0 and again at t=1.
    assert new.env.events_processed == 3 + 3 + 3


def test_destination_leaving_mid_frame_fails_the_unicast_on_both_sides():
    """``connected`` is read again at delivery: a destination (or a broadcast
    receiver) that left the air during the frame does not get it."""
    sides = [
        Side(P2PNetwork, PowerLedger, 3, "huddle", 5, lossy=False),
        Side(MaskP2PNetwork, MaskChargedLedger, 3, "huddle", 5, lossy=False),
    ]
    frames = [
        Message(MessageKind.DATA, 0, 1, 1000),
        Message(MessageKind.REQUEST, 0, None, 1000),
    ]
    for side in sides:
        side.send(0, lambda net: net.unicast(0, 1, frames[0]))
        # Defers behind the unicast.
        side.send(1, lambda net: net.broadcast(0, frames[1]))
        for until, node in ((0.5, 1), (1.5, 2)):
            side.env.run(until=until)
            side.net.set_connected(node, False)
        side.env.run()
    new, old = sides
    assert_same(new, old)
    assert new.returned == [(1.0, 0, False)]
    assert new.heard == [] and new.net.failed_unicasts == 1
    assert new.net.broadcasts == 1 and new.env.now == 2.0


def both_sides(n_hosts, topology, seed=0):
    return [
        Side(P2PNetwork, PowerLedger, n_hosts, topology, seed, lossy=False),
        Side(MaskP2PNetwork, MaskChargedLedger, n_hosts, topology, seed, lossy=False),
    ]


def test_flips_between_frame_start_and_delivery_on_both_sides():
    """Receivers and charges are fixed when a frame starts; delivery reads
    ``connected`` again.  A receiver that leaves mid-frame paid and gets
    nothing, a host that comes back mid-frame neither pays nor hears it,
    and a destination that leaves and returns within the frame gets it."""
    frames = [
        Message(MessageKind.REQUEST, 0, None, 1000),
        Message(MessageKind.DATA, 0, 1, 1000),
    ]
    sides = both_sides(4, "huddle")
    for side in sides:
        side.net.set_connected(3, False)
        side.send(0, lambda net: net.broadcast(0, frames[0]))
        side.env.run(until=0.5)
        side.net.set_connected(2, False)
        side.net.set_connected(3, True)
        side.env.run(until=1.5)  # the broadcast was delivered at 1.0
        side.send(1, lambda net: net.unicast(0, 1, frames[1]))
        side.env.run(until=1.75)
        side.net.set_connected(1, False)
        side.net.set_connected(1, True)
        side.env.run()
    new, old = sides
    assert_same(new, old)
    assert [(t, node) for t, node, _ in new.heard] == [(1.0, 1), (2.5, 1)]
    assert new.returned == [(2.5, 1, True)]
    # 2 paid for the broadcast and was off for the unicast; 3 missed the
    # broadcast and overheard the unicast next to both ends.
    model = new.net.model
    assert new.ledger.per_host("data")[2:] == [
        model.bc_recv(1000),
        model.ptp_discard_sd(1000),
    ]


def test_unicast_to_a_destination_out_of_range_on_both_sides():
    """0 -> 3 on the 70 m line: 3 is 210 m away.  The sender pays, 3 does
    not, 1 is a source-only bystander and 2 and 4 destination-only ones."""
    sides = both_sides(5, "line")
    message = Message(MessageKind.DATA, 0, 3, 100)
    for side in sides:
        side.send(0, lambda net: net.unicast(0, 3, message))
        side.env.run()
    new, old = sides
    assert_same(new, old)
    model = new.net.model
    assert new.returned == [(0.1, 0, False)]
    assert new.heard == [] and new.net.failed_unicasts == 1
    assert new.ledger.per_host("data") == [
        model.ptp_send(100),
        model.ptp_discard_s(100),
        model.ptp_discard_d(100),
        0.0,
        model.ptp_discard_d(100),
    ]


def test_contending_routes_on_both_sides():
    """Routed unicasts that share relays: every hop defers behind its
    neighbours' frames, and each route resolves at the same instant with the
    same outcome on both sides."""
    sides = both_sides(5, "line")
    routes = [(0, 1, 2), (2, 1, 0), (1, 2, 3, 4), (4, 3, 2), (3, 2)]
    messages = [Message(MessageKind.REPLY, path[0], path[-1], 1000) for path in routes]
    for side in sides:
        for step, (path, message) in enumerate(zip(routes, messages)):
            side.send(
                step,
                lambda net, path=path, message=message: net.unicast_route(
                    list(path), message
                ),
            )
        side.env.run()
    new, old = sides
    assert_same(new, old)
    assert sorted(step for _, step, _ in new.returned) == list(range(len(routes)))
    hops = sum(len(path) - 1 for path in routes)
    # Starts + one air time per hop, and more than one wake-up deferred.
    assert new.env.events_processed > len(routes) + hops + 1


@pytest.mark.parametrize("leaver, leaves_at, fails_at", [(1, 0.5, 1.0), (2, 1.5, 2.0), (3, 2.5, 3.0)])
def test_hop_leaving_mid_route_on_both_sides(leaver, leaves_at, fails_at):
    """0 -> 1 -> 2 -> 3 along the line, one second per hop: the host a hop
    is aimed at leaves during that hop, so the route fails when the hop
    lands and no later hop starts."""
    sides = both_sides(4, "line")
    message = Message(MessageKind.RETRIEVE, 0, 3, 1000)
    for side in sides:
        side.send(0, lambda net: net.unicast_route([0, 1, 2, 3], message))
        side.env.run(until=leaves_at)
        side.net.set_connected(leaver, False)
        side.env.run()
    new, old = sides
    assert_same(new, old)
    assert new.returned == [(fails_at, 0, False)]
    assert new.net.unicasts == leaver and new.net.failed_unicasts == 1
    assert new.heard == []


@pytest.mark.parametrize("sender_state", ["idle", "busy", "off"])
def test_process_waiting_on_a_route_resumes_alike(sender_state):
    """The retrieve shape: a process sends a route and waits for its outcome
    before arming its guard.  ``yield`` on the frame's event resumes at the
    instant and with the value ``yield from`` on the generator did, with no
    extra event; a sender already off the air resumes at once."""
    sides = both_sides(3, "line")
    blocker = Message(MessageKind.REQUEST, 0, None, 1000)
    message = Message(MessageKind.RETRIEVE, 0, 2, 100)
    for side in sides:
        env, net = side.env, side.net
        if sender_state == "busy":
            side.send(0, lambda net: net.broadcast(0, blocker))
        elif sender_state == "off":
            net.set_connected(0, False)

        def retrieve(side=side, env=env, net=net):
            yield env.timeout(0.25)
            if isinstance(net, MaskP2PNetwork):
                sent = yield from net.unicast_route([0, 1, 2], message)
            else:
                sent = yield net.unicast_route([0, 1, 2], message)
            side.record(1, sent)
            yield env.timeout(0.5)  # the guarded DATA wait
            side.record(2, "guard")

        env.process(retrieve())
        env.run()
    new, old = sides
    assert_same(new, old)
    start = {"idle": 0.25, "busy": 1.0, "off": 0.25}[sender_state]
    end = start if sender_state == "off" else start + 0.2
    assert [(step, v) for _, step, v in new.returned] == [
        (1, sender_state != "off"),
        (2, "guard"),
    ]
    assert [t for t, _, _ in new.returned] == pytest.approx([end, end + 0.5])
