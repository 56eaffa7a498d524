"""Per-request records: the per-outcome latency table and ``request`` spans.

``Metrics`` keeps totals only; the per-request record (time, host,
outcome, latency, ``from_tcg``) is the ``request`` span of an attached
:class:`~repro.obs.session.Observer`.
"""

import pytest

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Metrics, RequestOutcome
from repro.core.simulation import run_simulation
from repro.net.power import PowerLedger
from repro.obs import Observer, phase_breakdown


def test_results_latency_by_outcome():
    metrics = Metrics("GC")
    metrics.start_recording(0.0, PowerLedger(2), n_clients=2)
    metrics.record_request(0, RequestOutcome.SERVER, 0.2)
    metrics.record_request(0, RequestOutcome.SERVER, 0.4)
    metrics.record_request(0, RequestOutcome.LOCAL_HIT, 0.0)
    results = metrics.results(10.0, PowerLedger(2))
    assert results.latency_by_outcome["SERVER"] == (2, pytest.approx(0.3))
    assert results.latency_by_outcome["LOCAL_HIT"][0] == 1
    assert "FAILURE" not in results.latency_by_outcome


def test_simulation_tracing_end_to_end():
    config = SimulationConfig(
        scheme=CachingScheme.CC,
        n_clients=6,
        n_data=200,
        access_range=40,
        cache_size=8,
        group_size=3,
        measure_requests=5,
        warmup_min_time=30.0,
        warmup_max_time=60.0,
        ndp_enabled=False,
        seed=9,
    )
    observer = Observer()
    results = run_simulation(config, observer=observer)
    # One recorded ``request`` span per counted request ...
    closes = [
        event
        for event in observer.tracer.events
        if event.kind == "E" and event.name == "request" and event.args["recorded"]
    ]
    assert len(closes) == results.requests
    # ... closed in simulated-time order, each on a real host ...
    times = [event.time for event in closes]
    assert times == sorted(times)
    assert {event.host for event in closes} <= set(range(config.n_clients))
    # ... and the percentiles the per-request list used to serve come from
    # the span durations.
    (request,) = [
        stats
        for stats in phase_breakdown(observer.tracer.spans())
        if stats.name == "request"
    ]
    assert request.count >= results.requests  # warm-up requests are spans too
    assert request.p50 <= request.p95 <= request.max
