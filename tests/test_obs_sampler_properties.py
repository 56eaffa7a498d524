"""Hypothesis properties of the time-series sampler.

* Observation frequency is not an experimental parameter: for ANY sample
  period the traced event stream and the run's :class:`Results` are
  identical to the unsampled run.
* The windowed series integrates back to the aggregate: the window deltas
  sum exactly to the final counters, and the ratio-weighted reconstruction
  of the aggregate hit ratio agrees within float tolerance.
"""

import dataclasses
import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.simulation import run_simulation
from repro.obs import Observer, TimeSeriesSampler

_CONFIG = SimulationConfig(
    scheme=CachingScheme.GC,
    seed=19,
    n_clients=8,
    n_data=200,
    access_range=40,
    cache_size=8,
    group_size=4,
    measure_requests=8,
    warmup_min_time=30.0,
    warmup_max_time=60.0,
    ndp_enabled=False,
)

periods = st.floats(
    min_value=0.3, max_value=60.0, allow_nan=False, allow_infinity=False
)


def _event_key(event):
    return (
        event.kind,
        event.name,
        event.time,
        event.host,
        event.span,
        event.parent,
        event.status,
        tuple(sorted(event.args.items())),
    )


@functools.lru_cache(maxsize=None)
def _sampled_run(period):
    observer = Observer(sample_period=period)
    results = run_simulation(_CONFIG, observer=observer)
    return observer, results


@functools.lru_cache(maxsize=1)
def _baseline():
    observer = Observer(sample_period=None)
    results = run_simulation(_CONFIG, observer=observer)
    return [_event_key(e) for e in observer.tracer.events], results


@given(periods)
@settings(max_examples=10, deadline=None)
def test_sample_period_never_perturbs_the_run(period):
    baseline_events, baseline_results = _baseline()
    observer, results = _sampled_run(period)
    assert results == baseline_results
    assert [_event_key(e) for e in observer.tracer.events] == baseline_events


@given(periods)
@settings(max_examples=10, deadline=None)
def test_windowed_series_integrates_to_aggregate(period):
    observer, results = _sampled_run(period)
    sampler = observer.sampler
    assert sampler.finalized
    # Exact conservation: window deltas sum to the final counters.
    assert sum(sampler.series("win_requests")) == results.requests
    assert sum(sampler.series("win_local")) == results.local_hits
    assert sum(sampler.series("win_global")) == results.global_hits
    assert sum(sampler.series("win_server")) == results.server_requests
    assert sum(sampler.series("win_failures")) == results.failures
    # Ratio-weighted reconstruction of the aggregate local hit ratio.
    if results.requests:
        weighted = sum(
            ratio * win
            for ratio, win in zip(
                sampler.series("win_local_ratio"),
                sampler.series("win_requests"),
            )
        )
        reconstructed = 100.0 * weighted / results.requests
        assert math.isclose(reconstructed, results.lch_ratio, rel_tol=1e-9)
    # The cumulative columns end at the aggregate too.
    assert sampler.series("requests")[-1] == results.requests
    assert sampler.series("local_hits")[-1] == results.local_hits


@pytest.mark.parametrize("period", [0, -1, math.nan, math.inf])
def test_sample_period_must_be_positive_and_finite(period):
    """Rejected at construction, not by the kernel once sampling starts."""
    with pytest.raises(ValueError, match=f"sample period .* got {period}"):
        TimeSeriesSampler(period)


def test_observer_rejects_an_infinite_sample_period():
    with pytest.raises(ValueError, match="sample period .* got inf"):
        Observer(sample_period=math.inf)


def test_neighbors_mean_is_the_mean_live_neighbour_count():
    """The sampler counts fresh NDP links in one pass over the table; at
    every sample that is the mean of each host's ``live_neighbors`` count."""
    expected = []

    class Checked(TimeSeriesSampler):
        def sample(self):
            simulation = self._simulation
            counts = [
                int(simulation.ndp.live_neighbors(client.index).size)
                for client in simulation.clients
            ]
            expected.append(sum(counts) / len(counts))
            super().sample()

    observer = Observer(sample_period=None)
    observer.sampler = Checked(2.0)
    config = dataclasses.replace(_CONFIG, ndp_enabled=True, p_disc=0.1)
    run_simulation(config, observer=observer)
    assert observer.sampler.series("neighbors_mean") == expected
    assert len(set(expected)) > 3  # the neighbourhoods move
