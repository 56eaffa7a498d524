"""Tests for the Zipf generator, access patterns and the server database."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    AccessPattern,
    ServerDatabase,
    ZipfGenerator,
    build_access_patterns,
)
from repro.sim import Environment
from repro.sim.random import RandomStreams


def rng(seed=0):
    return np.random.default_rng(seed)


# -- zipf ------------------------------------------------------------------------


def test_zipf_theta_zero_is_uniform():
    generator = ZipfGenerator(rng(), 10, 0.0)
    for rank in range(10):
        assert generator.probability(rank) == pytest.approx(0.1)


def test_zipf_probabilities_sum_to_one():
    generator = ZipfGenerator(rng(), 50, 0.8)
    assert sum(generator.probability(r) for r in range(50)) == pytest.approx(1.0)


def test_zipf_probabilities_monotone_nonincreasing():
    generator = ZipfGenerator(rng(), 100, 0.9)
    probabilities = [generator.probability(r) for r in range(100)]
    assert all(a >= b - 1e-15 for a, b in zip(probabilities, probabilities[1:]))


def test_zipf_theta_one_ratio():
    generator = ZipfGenerator(rng(), 10, 1.0)
    assert generator.probability(0) / generator.probability(1) == pytest.approx(2.0)


def test_zipf_samples_in_range_and_skewed():
    generator = ZipfGenerator(rng(1), 100, 1.0)
    samples = generator.sample_many(20_000)
    assert samples.min() >= 0
    assert samples.max() < 100
    # Empirical frequency of the hottest rank tracks its probability.
    hottest = (samples == 0).mean()
    assert hottest == pytest.approx(generator.probability(0), rel=0.1)


def test_zipf_single_sample_matches_population():
    generator = ZipfGenerator(rng(2), 5, 0.5)
    counts = np.bincount([generator.sample() for _ in range(5000)], minlength=5)
    assert counts.argmax() == 0


class _Draws:
    """An injected ``rng`` whose ``random()`` returns the given draws in turn."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_zipf_bisect_matches_searchsorted_at_the_knots(n, theta):
    """``sample()`` bisects a list copy of the CDF; at every knot, either
    side of it, 0.0 and the largest double below 1.0 it picks the rank
    ``np.searchsorted(..., side="right")`` picks."""
    cdf = ZipfGenerator(rng(), n, theta)._cdf
    draws = [0.0, float(np.nextafter(1.0, 0.0))]
    for knot in cdf:
        draws += [knot, np.nextafter(knot, -np.inf), np.nextafter(knot, np.inf)]
    draws = [float(u) for u in draws]
    generator = ZipfGenerator(_Draws(draws), n, theta)
    for u in draws:
        rank = generator.sample()
        assert type(rank) is int
        assert rank == int(np.searchsorted(cdf, u, side="right")), u
    # One list per (n, theta), not one per host: a copy each is peak RSS.
    assert ZipfGenerator(rng(1), n, theta)._knots is generator._knots


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfGenerator(rng(), 0, 0.5)
    with pytest.raises(ValueError):
        ZipfGenerator(rng(), 10, -0.1)
    generator = ZipfGenerator(rng(), 10, 0.5)
    with pytest.raises(IndexError):
        generator.probability(10)


def test_zipf_rejects_nan_theta_by_value():
    """A NaN θ fails no ``theta < 0`` test; unguarded, every draw is rank 0."""
    with pytest.raises(ValueError, match="theta must be >= 0, got nan"):
        ZipfGenerator(rng(), 10, float("nan"))
    with pytest.raises(ValueError, match="theta must be >= 0, got nan"):
        AccessPattern(rng(), 100, 10, float("nan"), 0)


@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30)
def test_zipf_sample_always_valid(n, theta, seed):
    generator = ZipfGenerator(np.random.default_rng(seed), n, theta)
    for _ in range(20):
        assert 0 <= generator.sample() < n


# -- access patterns ---------------------------------------------------------------


def test_access_pattern_window_wraps():
    pattern = AccessPattern(rng(), n_data=100, access_range=10, theta=0.5, start=95)
    items = {pattern.item_for_rank(r) for r in range(10)}
    assert items == {95, 96, 97, 98, 99, 0, 1, 2, 3, 4}
    assert pattern.covers(97)
    assert pattern.covers(3)
    assert not pattern.covers(50)


def test_access_pattern_next_item_in_window():
    pattern = AccessPattern(rng(3), n_data=1000, access_range=50, theta=0.8, start=10)
    for _ in range(200):
        assert pattern.covers(pattern.next_item())


def test_access_pattern_rank_bounds():
    pattern = AccessPattern(rng(), 100, 10, 0.5, 0)
    with pytest.raises(IndexError):
        pattern.item_for_rank(10)


def test_access_pattern_validation():
    with pytest.raises(ValueError):
        AccessPattern(rng(), 100, 0, 0.5, 0)
    with pytest.raises(ValueError):
        AccessPattern(rng(), 100, 101, 0.5, 0)


def test_build_access_patterns_shared_within_group():
    patterns = build_access_patterns(
        rng(4), group_of=[0, 0, 1, 1], n_data=10_000, access_range=100, theta=0.5
    )
    assert patterns[0].start == patterns[1].start
    assert patterns[2].start == patterns[3].start
    # With 10k items two random groups almost surely differ.
    assert patterns[0].start != patterns[2].start


def test_build_access_patterns_same_hot_item_within_group():
    patterns = build_access_patterns(
        rng(5), group_of=[0, 0], n_data=1000, access_range=20, theta=1.0
    )
    assert patterns[0].item_for_rank(0) == patterns[1].item_for_rank(0)


#: The Zipf property's fixed panel: every seed at every skew.  8665 is in
#: it because at theta = 0 it once failed the single-test bound an
#: unadjusted 0.001 test used to apply to 12 random seeds per run.
ZIPF_SEEDS = (*range(19), 8665)
ZIPF_THETAS = (0.0, 0.5, 0.95)
ZIPF_DRAWS = 4_000
ZIPF_ALPHA = 0.001


def zipf_rank_cdfs(seed, theta, n=ZIPF_DRAWS):
    """Empirical and analytic CDF of one host's ranks in its group window,
    drawn the way a simulation draws them (Section V-B)."""
    n_data, access_range = 120, 30
    patterns = build_access_patterns(
        RandomStreams(seed).stream("workload"),
        group_of=[index // 3 for index in range(6)],
        n_data=n_data,
        access_range=access_range,
        theta=theta,
    )
    pattern = patterns[0]
    ranks = np.array(
        [(pattern.next_item() - pattern.start) % n_data for _ in range(n)]
    )
    assert ranks.max() < access_range  # every draw lands in the group window
    counts = np.bincount(ranks, minlength=access_range)
    zipf = ZipfGenerator(rng(), access_range, theta)
    analytic = np.cumsum([zipf.probability(rank) for rank in range(access_range)])
    return counts, analytic


def dkw_bound(n, tests):
    """The KS distance an n-draw empirical CDF exceeds with probability at
    most ZIPF_ALPHA / tests (Dvoretzky-Kiefer-Wolfowitz, Massart's
    constant), so ``tests`` checks hold together at family-wise ZIPF_ALPHA."""
    return math.sqrt(math.log(2 * tests / ZIPF_ALPHA) / (2 * n))


@pytest.fixture(scope="module")
def zipf_panel():
    return {
        (seed, theta): zipf_rank_cdfs(seed, theta)
        for seed in ZIPF_SEEDS
        for theta in ZIPF_THETAS
    }


def test_stationary_zipf_ranks_match_analytic_cdf(zipf_panel):
    """Every cell of the panel is within the KS tolerance, tested at a
    family-wise alpha over all cells."""
    bound = dkw_bound(ZIPF_DRAWS, len(zipf_panel))
    for (seed, theta), (counts, analytic) in zipf_panel.items():
        ks = float(np.max(np.abs(np.cumsum(counts) / ZIPF_DRAWS - analytic)))
        assert ks < bound, f"KS={ks:.4f} >= {bound:.4f} at seed={seed}, theta={theta}"


@pytest.mark.parametrize("theta", ZIPF_THETAS)
def test_pooled_zipf_ranks_match_analytic_cdf(zipf_panel, theta):
    """All seeds' draws at one skew, pooled: twenty times the draws of one
    cell, so a skew off by a few hundredths no longer hides in the noise."""
    cells = [zipf_panel[seed, theta] for seed in ZIPF_SEEDS]
    n = ZIPF_DRAWS * len(cells)
    counts = sum(counts for counts, _ in cells)
    analytic = cells[0][1]
    ks = float(np.max(np.abs(np.cumsum(counts) / n - analytic)))
    bound = dkw_bound(n, 1)
    assert ks < bound, f"pooled KS={ks:.4f} >= {bound:.4f} at theta={theta}"


# -- server database ------------------------------------------------------------------


def test_fresh_database_has_infinite_ttl():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=10)
    assert db.assign_ttl(0) == math.inf
    assert sum(db.version) == 0


def test_apply_update_bumps_version_and_interval():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=10)
    env.run(until=4.0)
    db.apply_update(3)
    assert db.version[3] == 1
    assert db.update_interval(3) == pytest.approx(4.0)  # first gap since creation
    assert db.last_update_time(3) == 4.0


def test_database_hands_out_python_scalars():
    """No numpy scalar leaks into a CacheEntry, for an updated item with
    TTL left and for a never-updated one alike."""
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=10, update_rate=5.0)
    fresh = ServerDatabase(env, rng(), n_data=10)
    env.run(until=20.0)
    ttls = [db.assign_ttl(item) for item in range(10)]
    assert any(0.0 < ttl < math.inf for ttl in ttls)
    assert fresh.assign_ttl(0) == math.inf
    for database in (db, fresh):
        for item in range(10):
            assert type(database.assign_ttl(item)) is float
            assert type(database.last_update_time(item)) is float
            assert type(database.update_interval(item)) is float
            assert type(database.updated_since(item, 1.0)) is bool
            assert type(database.version[item]) is int


def test_ewma_interval_update():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=10, alpha=0.5)
    env.run(until=10.0)
    db.apply_update(0)  # u = 10
    env.run(until=14.0)
    db.apply_update(0)  # u = 0.5*4 + 0.5*10 = 7
    assert db.update_interval(0) == pytest.approx(7.0)


def test_assign_ttl_decreases_with_item_age():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=10, alpha=1.0)
    env.run(until=10.0)
    db.apply_update(0)  # u = 10, t_l = 10
    env.run(until=13.0)
    assert db.assign_ttl(0) == pytest.approx(7.0)
    env.run(until=25.0)
    assert db.assign_ttl(0) == 0.0  # never negative


def test_examine_idle_items_ages_interval_without_touching_t_l():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=10, alpha=0.5)
    env.run(until=2.0)
    db.apply_update(0)  # u = 2, t_l = 2
    env.run(until=10.0)
    aged = db.examine_idle_items()  # idle 8 > u=2 -> u = 0.5*8 + 0.5*2 = 5
    assert aged == 1
    assert db.update_interval(0) == pytest.approx(5.0)
    assert db.last_update_time(0) == 2.0
    # Fresh items (nan interval) are never aged.
    assert math.isnan(db.update_interval(1))


def test_examine_skips_recently_updated():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=5, alpha=0.5)
    env.run(until=10.0)
    db.apply_update(0)  # u = 10
    env.run(until=12.0)
    assert db.examine_idle_items() == 0  # idle 2 < 10


def test_updated_since():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=5)
    env.run(until=3.0)
    db.apply_update(2)
    assert db.updated_since(2, retrieve_time=1.0)
    assert not db.updated_since(2, retrieve_time=3.0)
    assert not db.updated_since(0, retrieve_time=1.0)


def test_update_process_rate():
    env = Environment()
    db = ServerDatabase(env, rng(6), n_data=1000, update_rate=5.0)
    env.run(until=200.0)
    # ~1000 updates expected; allow generous slack.
    assert 700 <= db.updates_applied <= 1300


def test_no_update_process_when_rate_zero():
    env = Environment()
    db = ServerDatabase(env, rng(), n_data=10, update_rate=0.0)
    env.run(until=100.0)
    assert db.updates_applied == 0
    assert env.peek() == math.inf  # no lingering processes


def test_database_validation():
    env = Environment()
    with pytest.raises(ValueError):
        ServerDatabase(env, rng(), n_data=0)
    with pytest.raises(ValueError):
        ServerDatabase(env, rng(), n_data=5, update_rate=-1)
    with pytest.raises(ValueError):
        ServerDatabase(env, rng(), n_data=5, alpha=2.0)
    with pytest.raises(ValueError):
        ServerDatabase(env, rng(), n_data=5, examine_interval=0)
