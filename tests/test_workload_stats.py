"""Statistical properties of the workload engines (Hypothesis + KS).

Three distributional contracts from the workload spec:

* ``stationary-zipf`` — empirical rank frequencies match the analytic
  Zipf CDF within Kolmogorov-Smirnov tolerance, across seeds;
* ``diurnal`` — the sinusoidal rate factor integrates to exactly the
  configured mean over each period (and the drawn request rate stays on
  the nominal mean over whole periods);
* ``popularity-drift`` — reshuffling which item holds which rank leaves
  the *marginal* skew untouched: the sorted item-frequency profile still
  matches the analytic Zipf profile in every epoch, while the
  permutation itself genuinely changes between epochs.

All draws go through the real engines via ``build_workload`` — the same
objects a simulation binds — not through private re-implementations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimulationConfig
from repro.data.zipf import ZipfGenerator
from repro.sim.random import RandomStreams
from repro.workloads.factory import build_workload
from repro.workloads.synthetic import (
    DiurnalWorkload,
    PopularityDriftWorkload,
    diurnal_rate_factor,
)

N_CLIENTS = 6
GROUP_SIZE = 3
N_DATA = 120
ACCESS_RANGE = 30


def small_config(seed, workload, theta=0.5):
    return SimulationConfig(
        n_clients=N_CLIENTS,
        n_data=N_DATA,
        access_range=ACCESS_RANGE,
        cache_size=6,
        group_size=GROUP_SIZE,
        theta=theta,
        measure_requests=5,
        warmup_min_time=20.0,
        warmup_max_time=40.0,
        max_sim_time=400.0,
        ndp_enabled=False,
        seed=seed,
        workload=workload,
    )


def bound_stream(config):
    """The engine and host 0's stream, bound exactly as a simulation would."""
    streams = RandomStreams(config.seed)
    group_of = [index // config.group_size for index in range(config.n_clients)]
    engine = build_workload(config, streams, group_of)
    return engine, engine.bind(0, streams.stream("stats-host"))


def analytic_zipf_cdf(n, theta):
    zipf = ZipfGenerator(np.random.default_rng(0), n, theta)
    return np.cumsum([zipf.probability(rank) for rank in range(n)])


# -- stationary-zipf -------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    theta=st.sampled_from([0.0, 0.5, 0.95]),
)
@settings(max_examples=12, deadline=None)
def test_stationary_zipf_ranks_match_analytic_cdf(seed, theta):
    config = small_config(seed, "stationary-zipf", theta=theta)
    engine, stream = bound_stream(config)
    pattern = engine.patterns[0]
    n = 4_000
    ranks = np.array(
        [(stream.next_item(0.0) - pattern.start) % N_DATA for _ in range(n)]
    )
    assert ranks.max() < ACCESS_RANGE  # every draw lands in the group window
    empirical = np.cumsum(np.bincount(ranks, minlength=ACCESS_RANGE)) / n
    analytic = analytic_zipf_cdf(ACCESS_RANGE, theta)
    ks = float(np.max(np.abs(empirical - analytic)))
    # 1.95/sqrt(n) is the alpha ~= 0.001 KS critical value; the discrete
    # statistic is conservative against it.
    assert ks < 1.95 / math.sqrt(n), f"KS={ks:.4f} at theta={theta}"


# -- diurnal ---------------------------------------------------------------------


@given(
    amplitude=st.floats(min_value=0.0, max_value=0.95),
    period=st.floats(min_value=10.0, max_value=2_000.0),
)
@settings(max_examples=50, deadline=None)
def test_diurnal_factor_integrates_to_the_configured_mean(amplitude, period):
    ts = np.linspace(0.0, period, 20_001)
    factors = np.array([diurnal_rate_factor(t, amplitude, period) for t in ts])
    assert float(factors.min()) > 0.0  # amplitude < 1 keeps the rate positive
    mean = float(np.trapezoid(factors, ts)) / period
    assert mean == pytest.approx(1.0, abs=1e-6)


def test_diurnal_drawn_rate_stays_on_the_nominal_mean():
    config = small_config(42, "diurnal")
    _, stream = bound_stream(config)
    # whole periods only, so modulation averages out
    horizon = 50 * DiurnalWorkload.period
    now, count = 0.0, 0
    while now < horizon:
        now += stream.next_delay(now)
        stream.next_item(now)
        count += 1
    nominal = horizon / config.think_time_mean
    assert count == pytest.approx(nominal, rel=0.10)


# -- popularity-drift ------------------------------------------------------------


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_drift_preserves_marginal_skew_across_epochs(seed):
    period = PopularityDriftWorkload.period
    config = small_config(seed, "popularity-drift")
    engine, stream = bound_stream(config)
    analytic = analytic_zipf_cdf(ACCESS_RANGE, config.theta)
    n = 3_000
    for epoch in (0, 3):
        now = epoch * period + 1.0
        items = [stream.next_item(now) for _ in range(n)]
        counts = np.bincount(np.array(items) % N_DATA, minlength=N_DATA)
        profile = np.sort(counts)[::-1][:ACCESS_RANGE] / n
        ks = float(np.max(np.abs(np.cumsum(profile) - analytic)))
        # Sorting the empirical profile biases it slightly hot, so the
        # tolerance is looser than the raw KS critical value.
        assert ks < 0.05, f"epoch {epoch}: KS={ks:.4f}"


def test_drift_permutation_changes_between_epochs():
    period = PopularityDriftWorkload.period
    config = small_config(7, "popularity-drift")
    engine, _ = bound_stream(config)
    first = np.array(engine.permutation(1.0))
    second = np.array(engine.permutation(period + 1.0))
    assert sorted(first) == sorted(second) == list(range(ACCESS_RANGE))
    assert not np.array_equal(first, second)


def test_drift_epochs_are_monotone_and_order_independent():
    period = PopularityDriftWorkload.period
    config = small_config(9, "popularity-drift")
    engine_a, _ = bound_stream(config)
    engine_b, _ = bound_stream(config)
    # Jumping straight to epoch 4 consumes the skipped epochs' draws, so
    # the mapping matches an engine that visited every epoch in turn.
    direct = np.array(engine_a.permutation(4 * period + 1.0))
    for epoch in range(4):
        engine_b.permutation(epoch * period + 1.0)
    stepped = np.array(engine_b.permutation(4 * period + 1.0))
    assert np.array_equal(direct, stepped)
    # Asking about an earlier time never rolls the epoch back.
    assert np.array_equal(np.array(engine_a.permutation(1.0)), direct)
