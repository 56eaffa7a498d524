"""The aggregate-cache effect of GroCoCa's cooperative cache management.

Section IV-E's purpose is to make a TCG's caches behave like one big
cache: admission control avoids duplicating what a member already holds,
and cooperative replacement evicts likely-replicas first.  This test runs
GroCoCa with the two protocols on and off (same seed) and checks that they
measurably increase the number of *distinct* items held per motion group.
"""

import numpy as np

from repro import CachingScheme, SimulationConfig
from repro.core.simulation import Simulation


def build(seed, cooperative):
    config = SimulationConfig(
        scheme=CachingScheme.GC,
        n_clients=15,
        n_data=1000,
        access_range=120,
        cache_size=25,
        group_size=5,
        measure_requests=40,
        warmup_min_time=150.0,
        warmup_max_time=250.0,
        ndp_enabled=False,
        admission_policy="grococa" if cooperative else "always",
        replacement_policy="grococa" if cooperative else "lru",
        seed=seed,
    )
    sim = Simulation(config)
    sim.run()
    return sim


def distinct_items_per_group(sim):
    groups = {}
    for index, group in enumerate(sim.group_of):
        groups.setdefault(group, set()).update(sim.clients[index].cache.items())
    return [len(items) for items in groups.values()]


def duplication_factor(sim):
    """cached copies / distinct items, averaged over groups (1 = no dupes)."""
    factors = []
    groups = {}
    for index, group in enumerate(sim.group_of):
        groups.setdefault(group, []).append(sim.clients[index])
    for members in groups.values():
        copies = sum(len(client.cache) for client in members)
        distinct = len(set().union(*(c.cache.items() for c in members)))
        if distinct:
            factors.append(copies / distinct)
    return float(np.mean(factors))


def test_cooperative_management_enlarges_the_aggregate_cache():
    managed = build(seed=21, cooperative=True)
    unmanaged = build(seed=21, cooperative=False)
    assert np.mean(distinct_items_per_group(managed)) > np.mean(
        distinct_items_per_group(unmanaged)
    )
    assert duplication_factor(managed) < duplication_factor(unmanaged)


def test_cooperative_management_earns_global_hits():
    managed = build(seed=22, cooperative=True)
    unmanaged = build(seed=22, cooperative=False)
    managed_results = managed.metrics.results(managed.env.now, managed.ledger)
    unmanaged_results = unmanaged.metrics.results(
        unmanaged.env.now, unmanaged.ledger
    )
    # More distinct items in the group -> at least comparable GCH.
    assert managed_results.gch_ratio > unmanaged_results.gch_ratio - 1.0
