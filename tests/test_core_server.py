"""Tests for the MSS request handlers."""

import math

import numpy as np
import pytest

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.server import MobileSupportStation
from repro.core.tcg import TCGManager
from repro.data.server_db import ServerDatabase
from repro.sim import Environment


def make_server(scheme=CachingScheme.GC, update_rate=0.0, n=4, n_data=50):
    env = Environment()
    config = SimulationConfig(
        scheme=scheme,
        n_clients=n,
        n_data=n_data,
        access_range=min(20, n_data),
        data_update_rate=update_rate,
    )
    database = ServerDatabase(
        env, np.random.default_rng(0), n_data, update_rate=update_rate
    )
    tcg = None
    if scheme is CachingScheme.GC:
        tcg = TCGManager(n, n_data, 100.0, 0.2, 0.5)
    return env, MobileSupportStation(env, config, database, tcg=tcg)


def test_data_request_returns_copy_with_ttl():
    env, server = make_server()
    reply = server.handle_data_request(0, item=7, location=(1.0, 2.0))
    assert reply.item == 7
    assert reply.version == 0
    assert math.isinf(reply.expiry)  # never updated
    assert reply.retrieve_time == env.now
    assert server.data_requests == 1


def test_data_request_learns_pattern():
    env, server = make_server()
    server.handle_data_request(0, item=7, location=(0.0, 0.0))
    assert server.tcg.access_count(0, 7) == 1
    assert server.tcg.weighted_distance(0, 1) == math.inf  # 1 not seen yet
    server.handle_data_request(1, item=7, location=(3.0, 4.0))
    assert server.tcg.weighted_distance(0, 1) == pytest.approx(5.0)


def test_lc_cc_server_skips_tcg_work():
    env, server = make_server(scheme=CachingScheme.CC)
    reply = server.handle_data_request(0, item=1, location=(0.0, 0.0))
    assert reply.added == set() and reply.removed == set()
    assert server.tcg is None


def test_membership_changes_piggybacked_once():
    env, server = make_server()
    # Make 0 and 1 tightly coupled; collect every piggybacked announcement.
    announced = set()
    for _ in range(3):
        announced |= server.handle_data_request(0, item=5, location=(0.0, 0.0)).added
        server.handle_data_request(1, item=5, location=(1.0, 0.0))
    assert announced == {1}
    again = server.handle_data_request(0, item=5, location=(0.0, 0.0))
    assert again.added == set()  # already announced


def test_validation_approves_unchanged_copy():
    env, server = make_server(update_rate=0.0)
    first = server.handle_data_request(0, item=3, location=(0.0, 0.0))
    env.run(until=10.0)
    reply = server.handle_validation(
        0, item=3, retrieve_time=first.retrieve_time, location=(0.0, 0.0)
    )
    assert not reply.refreshed
    assert reply.retrieve_time == first.retrieve_time
    assert server.validations == 1


def test_validation_ships_fresh_copy_after_update():
    env, server = make_server()
    first = server.handle_data_request(0, item=3, location=(0.0, 0.0))
    env.run(until=5.0)
    server.database.apply_update(3)
    reply = server.handle_validation(
        0, item=3, retrieve_time=first.retrieve_time, location=(0.0, 0.0)
    )
    assert reply.refreshed
    assert reply.version == 1
    assert reply.retrieve_time == 5.0


def test_validation_assigns_remaining_lifetime_ttl():
    env, server = make_server()
    env.run(until=10.0)
    server.database.apply_update(3)  # u = 10, t_l = 10
    env.run(until=14.0)
    reply = server.handle_data_request(0, item=3, location=(0.0, 0.0))
    assert reply.expiry == pytest.approx(14.0 + 6.0)


def test_explicit_update_feeds_pattern():
    env, server = make_server()
    added, removed = server.handle_explicit_update(
        0, location=(0.0, 0.0), peer_accessed_items=[1, 2, 2]
    )
    assert server.tcg.access_count(0, 2) == 2
    assert server.explicit_updates == 1
    assert added == set()


def test_membership_sync_returns_full_view():
    env, server = make_server()
    for _ in range(3):
        server.handle_data_request(0, item=5, location=(0.0, 0.0))
        server.handle_data_request(1, item=5, location=(1.0, 0.0))
    view = server.handle_membership_sync(0)
    assert view == {1}
    # Sync marks everything announced: nothing further piggybacked.
    reply = server.handle_data_request(0, item=5, location=(0.0, 0.0))
    assert reply.added == set()


def test_membership_sync_without_tcg():
    env, server = make_server(scheme=CachingScheme.CC)
    assert server.handle_membership_sync(0) == set()
