"""The peer-signature oracle reads without perturbing, and sees a lost count."""

from repro import CachingScheme, SimulationConfig
from repro.check.monitor import InvariantMonitor
from repro.core.simulation import Simulation, run_simulation
from tests._signature_oracle import SignatureOracle


def small_gc(seed=31):
    return SimulationConfig(
        scheme=CachingScheme.GC,
        n_clients=12,
        n_data=400,
        access_range=80,
        cache_size=20,
        group_size=4,
        measure_requests=25,
        warmup_min_time=120.0,
        warmup_max_time=180.0,
        ndp_enabled=False,
        seed=seed,
    )


def test_oracle_run_is_bit_identical_to_a_plain_monitored_run():
    oracle = SignatureOracle()
    assert run_simulation(small_gc(), monitor=oracle) == run_simulation(
        small_gc(), monitor=InvariantMonitor()
    )
    assert oracle.signature_audits > 0
    assert oracle.held > 0 and oracle.absent > 0
    assert 0.0 <= oracle.false_negative_rate <= 1.0
    assert 0.0 <= oracle.false_positive_rate <= 1.0
    assert 0.0 < oracle.expected_false_positive_rate < 1.0


def _zeroable(simulation):
    """(agent, item, position): an item a member holds that the host's
    filter passes, and one of its positions counted no higher than the
    members' signatures say, so zeroing it can only add drift."""
    clients = simulation.clients
    for client in clients:
        agent = client.signatures
        for member in sorted(agent.members):
            for item in clients[member].cache:
                if not agent.likely_cached_by_members(item):
                    continue
                for position in agent.scheme.positions(item):
                    expected = sum(
                        position in clients[m].signatures.own.counters
                        for m in agent.members
                    )
                    if agent.peer.counters[position] <= expected:
                        return agent, item, position
    raise AssertionError("no member-held item passes any host's filter")


def test_a_zeroed_peer_counter_shows_as_drift_and_a_false_negative():
    simulation = Simulation(small_gc(), monitor=InvariantMonitor())
    simulation.run()
    before = SignatureOracle(mode="collect")
    before.audit_signatures(simulation)
    agent, item, position = _zeroable(simulation)
    lost = agent.peer.counters.pop(position)
    assert not agent.likely_cached_by_members(item)
    after = SignatureOracle(mode="collect")
    after.audit_signatures(simulation)
    assert after.drift == before.drift + lost
    assert after.false_negatives > before.false_negatives
    assert after.held == before.held
