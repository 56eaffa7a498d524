"""GroCoCa state is sized by what it holds, not by σ or by n_data.

The peer vector keeps only its non-zero counters and the MSS only the
non-zero access counts, so neither grows with the signature length σ nor
with the database size.  Each test runs at a σ or an n_data far beyond any
figure and bounds the ``tracemalloc`` peak (numpy reports its buffers to
it) at ten times or more what the sparse state needs: a σ-long or
``(N, n_data)`` array shows up as hundreds of MiB or more.  The MSS's dot
products are counted instead: one entry per client pair sharing an item.
"""

import tracemalloc

import numpy as np

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.simulation import run_simulation
from repro.core.tcg import TCGManager
from repro.experiments.runner import QUICK_PROFILE
from repro.signatures import PeerSignature, SignatureScheme

MIB = 2**20


def traced_peak_mib(build):
    """(result of ``build()``, its tracemalloc peak in MiB)."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def test_peer_signature_is_not_sigma_long():
    scheme = SignatureScheme(np.random.default_rng(0), 10**8, 2)

    def build():
        peer = PeerSignature(scheme)
        for item in range(100):
            peer.merge_positions(sorted(set(scheme.positions(item))))
        peer.apply_update(list(scheme.positions(100)), list(scheme.positions(0)))
        return peer

    peer, peak = traced_peak_mib(build)
    assert peak < 1.0  # a dense vector: 763 MiB
    assert peer.counter_bits >= 1 and len(peer.counters) <= 2 * 101


def test_tcg_access_counts_are_not_n_data_wide():
    def build():
        manager = TCGManager(50, 10**7, 100.0, 0.1, 0.5)
        for client in range(50):
            manager.record_location(client, (float(client), 0.0))
            manager.record_access(client, client % 7, count=2)
        return manager

    manager, peak = traced_peak_mib(build)
    assert peak < 1.0  # a dense (50, 10**7) matrix: 3 815 MiB
    assert manager.access_count(3, 3) == 2 and len(manager.access_counts) == 7


def test_tcg_dot_products_hold_only_pairs_that_share_an_item():
    n_clients, n_data = 1_000, 500
    manager = TCGManager(n_clients, n_data, 100.0, 0.1, 0.5)
    holders = {}
    for client in range(n_clients):
        # Two distinct items, each accessed once: no client pairs with itself.
        for item in {client % n_data, 7 * client % n_data}:
            manager.record_access(client, item)
            holders.setdefault(item, set()).add(client)
    sharing = {
        (i, j) for group in holders.values() for i in group for j in group if i != j
    }
    assert sum(len(row) for row in manager._dot) == len(sharing)
    assert {(i, j) for i, row in enumerate(manager._dot) for j in row} == sharing
    assert len(sharing) < n_clients**2 // 100  # a dense matrix: 10**6 entries


def test_gc_run_at_huge_sigma_stays_small():
    config = SimulationConfig(
        **{
            **QUICK_PROFILE,
            "scheme": CachingScheme.GC,
            "signature_bits": 10**7,
            "measure_requests": 3,
            "warmup_min_time": 0.0,
            "warmup_max_time": 30.0,
        }
    )
    results, peak = traced_peak_mib(lambda: run_simulation(config))
    assert peak < 16.0  # one dense peer vector per host: 1 528 MiB
    assert results.global_hits > 0  # peers answered: signatures were in use


def tracer_retained_bytes(make_tracer):
    """The tracemalloc bytes a tracer keeps alive after a small traced GC run.

    The tracer is unbound from the run's clock afterwards, so the simulation
    is garbage; what deleting the tracer then frees is what it retained.
    """
    import gc

    from repro.obs import Observer

    config = SimulationConfig(
        scheme=CachingScheme.GC,
        seed=5,
        n_clients=10,
        n_data=300,
        access_range=60,
        cache_size=10,
        measure_requests=10,
        warmup_min_time=30.0,
        warmup_max_time=30.0,
    )
    tracemalloc.start()
    try:
        tracer = make_tracer()
        run_simulation(config, observer=Observer(sample_period=None, tracer=tracer))
        tracer.bind(None)
        events = len(tracer.events)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del tracer
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], events
    finally:
        tracemalloc.stop()


def test_trace_store_retains_at_most_half_the_reference_tracer():
    """The column store against one ``TraceEvent`` and one dict per event."""
    from repro.obs import Tracer
    from tests._trace_reference import ReferenceTracer

    store, events = tracer_retained_bytes(Tracer)
    reference, reference_events = tracer_retained_bytes(ReferenceTracer)
    assert events == reference_events > 1000
    assert store <= reference / 2, (store, reference)
