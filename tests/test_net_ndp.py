"""Tests for the neighbor discovery protocol."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import (
    MobilityField,
    Rectangle,
    RandomWaypointTrajectory,
    StationaryTrajectory,
    build_group_mobility,
)
from repro.net import NeighborDiscovery, P2PNetwork, PowerLedger
from repro.sim import Environment


def make(points, tran_range=50.0, **ndp_kwargs):
    env = Environment()
    field = MobilityField([StationaryTrajectory(p) for p in points])
    ledger = PowerLedger(len(points))
    net = P2PNetwork(env, field, 2_000_000.0, tran_range, ledger)
    ndp = NeighborDiscovery(env, net, **ndp_kwargs)
    return env, net, ndp, ledger


TRIANGLE = [(0.0, 0.0), (30.0, 0.0), (500.0, 0.0)]


def test_beacons_populate_neighbor_tables():
    env, net, ndp, _ = make(TRIANGLE)
    env.run(until=2.0)
    assert ndp.hears(0, 1)
    assert ndp.hears(1, 0)
    assert not ndp.hears(0, 2)
    assert ndp.live_neighbors(0).tolist() == [1]
    assert ndp.live_neighbors(2).tolist() == []


def test_hears_self_always():
    env, net, ndp, _ = make(TRIANGLE)
    assert ndp.hears(0, 0)


def test_no_beacons_before_first_interval():
    env, net, ndp, _ = make(TRIANGLE)
    env.run(until=0.5)
    assert not ndp.hears(0, 1)


def test_link_expires_after_miss_limit():
    env, net, ndp, _ = make(TRIANGLE, beacon_interval=1.0, miss_limit=3)
    env.run(until=2.0)
    assert ndp.hears(0, 1)
    net.set_connected(1, False)
    env.run(until=4.5)  # last heard at t=2; horizon is 3 s
    assert ndp.hears(0, 1)
    env.run(until=5.5)
    assert not ndp.hears(0, 1)


def test_forget_clears_links_immediately():
    env, net, ndp, _ = make(TRIANGLE)
    env.run(until=2.0)
    ndp.forget(1)
    assert not ndp.hears(0, 1)
    assert not ndp.hears(1, 0)


def test_disconnected_hosts_do_not_listen():
    env, net, ndp, _ = make(TRIANGLE)
    net.set_connected(0, False)
    env.run(until=3.0)
    assert not ndp.hears(0, 1)  # 0 was offline, heard nothing
    assert not ndp.hears(1, 0)  # 0 sent nothing


def test_beacon_power_charged_to_beacon_purpose():
    env, net, ndp, ledger = make(TRIANGLE)
    env.run(until=3.0)
    assert ledger.total("beacon") > 0
    assert ledger.total("data") == 0.0
    # Host 2 is isolated: it pays only its own sends, never receptions.
    model = net.model
    expected_sender_only = 3 * model.bc_send(ndp.hello_size)
    assert ledger.host_total(2) == pytest.approx(expected_sender_only)


def test_beacon_power_can_be_disabled():
    env, net, ndp, ledger = make(TRIANGLE, charge_power=False)
    env.run(until=3.0)
    assert ledger.total() == 0.0
    assert ndp.hears(0, 1)


def test_ndp_validates_parameters():
    env = Environment()
    field = MobilityField([StationaryTrajectory((0, 0))])
    net = P2PNetwork(env, field, 1000.0, 10.0, PowerLedger(1))
    with pytest.raises(ValueError):
        NeighborDiscovery(env, net, beacon_interval=0)
    with pytest.raises(ValueError):
        NeighborDiscovery(env, net, miss_limit=0)


def test_ndp_tracks_moving_hosts():
    env = Environment()
    rng = np.random.default_rng(0)
    area = Rectangle(200.0, 200.0)
    field = MobilityField(
        [RandomWaypointTrajectory(rng, area, 5.0, 10.0) for _ in range(8)]
    )
    net = P2PNetwork(env, field, 2_000_000.0, 60.0, PowerLedger(8))
    ndp = NeighborDiscovery(env, net, miss_limit=1)
    env.run(until=30.0)
    # NDP's view must match true geometry at the last beacon time (t=30).
    truth = {
        i: set(field.neighbors_of(i, 30.0, 60.0).tolist()) for i in range(8)
    }
    for i in range(8):
        assert set(ndp.live_neighbors(i).tolist()) == truth[i]


# -- the vectorised cycle against the per-sender loop it replaced ------------


def _reference_cycle(ndp, now, last_heard, ledger):
    """One beacon cycle, one sender and one charged receiver at a time."""
    network = ndp.network
    connected = network.connected
    senders = np.nonzero(connected)[0]
    if not senders.size:
        return 0, 0
    positions = network.field.positions(now)
    radius = network.tran_range
    receptions = np.zeros(len(connected), dtype=np.int64)
    for sender in senders:
        deltas = positions - positions[sender]
        close = (deltas[:, 0] ** 2 + deltas[:, 1] ** 2) <= radius * radius
        close[sender] = False
        close &= connected
        listeners = np.nonzero(close)[0]
        last_heard[listeners, sender] = now
        receptions[listeners] += 1
    send_cost = network.model.bc_send(ndp.hello_size)
    recv_cost = network.model.bc_recv(ndp.hello_size)
    for sender in senders:
        ledger.charge(int(sender), send_cost, "beacon")
    for host in np.nonzero(receptions)[0]:
        ledger.charge(int(host), recv_cost * int(receptions[host]), "beacon")
    return 1, int(senders.size)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n_hosts=st.integers(min_value=1, max_value=24),
    tran_range=st.sampled_from([40.0, 100.0, 400.0]),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_vectorised_cycle_matches_per_sender_loop(seed, n_hosts, tran_range, data):
    env = Environment()
    field, _ = build_group_mobility(
        np.random.default_rng(seed),
        n_hosts,
        3,
        Rectangle(300.0, 300.0),
        1.0,
        5.0,
        resolution=0.1,
    )
    net = P2PNetwork(env, field, 2_000_000.0, tran_range, PowerLedger(n_hosts))
    ndp = NeighborDiscovery(env, net)
    masks = data.draw(
        st.lists(
            st.one_of(
                st.just([False] * n_hosts),  # nobody on the air
                st.just([True] * n_hosts),
                st.lists(st.booleans(), min_size=n_hosts, max_size=n_hosts),
            ),
            min_size=1,
            max_size=6,
        )
    )
    last_heard = np.full((n_hosts, n_hosts), -np.inf)
    ledger = PowerLedger(n_hosts)
    rounds = beacons = 0
    for cycle, mask in enumerate(masks, start=1):
        for host, up in enumerate(mask):
            net.set_connected(host, up)
        env.run(until=cycle + 0.5)  # the cycle itself runs at t == cycle
        ran, sent = _reference_cycle(ndp, float(cycle), last_heard, ledger)
        rounds += ran
        beacons += sent
    assert np.array_equal(ndp._last_heard, last_heard)
    assert (ndp.rounds, ndp.beacons_sent) == (rounds, beacons)
    for purpose in ("beacon", "data", "signature"):
        assert net.ledger.per_host(purpose) == ledger.per_host(purpose)
