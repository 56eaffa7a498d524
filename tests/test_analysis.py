"""Tests for the post-run analysis module."""

import numpy as np
import pytest

from repro import CachingScheme, SimulationConfig
from repro.analysis import (
    DiscoveryQuality,
    cache_duplication,
    cache_overlap_matrix,
    group_distinct_items,
    jain_fairness,
    tcg_discovery_quality,
)
from repro.core.simulation import Simulation


def run_small(scheme=CachingScheme.GC, seed=31):
    sim = Simulation(
        SimulationConfig(
            scheme=scheme,
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
    )
    sim.run()
    return sim


# -- discovery quality dataclass ----------------------------------------------


def test_discovery_quality_math():
    quality = DiscoveryQuality(true_pairs=10, discovered_pairs=8, correct_pairs=6)
    assert quality.precision == pytest.approx(0.75)
    assert quality.recall == pytest.approx(0.6)
    assert quality.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_discovery_quality_degenerate():
    empty = DiscoveryQuality(0, 0, 0)
    assert empty.precision == 0.0
    assert empty.recall == 0.0
    assert empty.f1 == 0.0


# -- jain fairness --------------------------------------------------------------


def test_jain_fairness_bounds():
    assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)
    assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_fairness([0, 0]) == 1.0  # all-zero convention
    with pytest.raises(ValueError):
        jain_fairness([])


def test_jain_fairness_intermediate():
    value = jain_fairness([1, 2, 3])
    assert 1 / 3 < value < 1.0


@pytest.mark.parametrize(
    "values, named",
    [([1, -1], "-1.0"), ([1, float("nan")], "nan"), ([float("inf"), 1], "inf")],
)
def test_jain_fairness_rejects_negative_and_non_finite_values(values, named):
    """Outside [0, inf) the index leaves its [1/n, 1] range (or turns NaN
    with a RuntimeWarning), so such a value is refused by name."""
    with pytest.raises(ValueError, match=named):
        jain_fairness(values)


# -- end-to-end over a run ----------------------------------------------------------


def test_tcg_discovery_recovers_motion_groups():
    sim = run_small()
    quality = tcg_discovery_quality(sim)
    assert quality.true_pairs == 3 * (4 * 3 // 2)  # 3 groups of 4
    # TCG discovery should find mostly-correct pairs at this scale.
    assert quality.precision > 0.7
    assert quality.recall > 0.5
    assert 0.0 < quality.f1 <= 1.0


def test_tcg_discovery_requires_gc():
    sim = run_small(scheme=CachingScheme.CC)
    with pytest.raises(ValueError):
        tcg_discovery_quality(sim)


def test_group_distinct_items_and_duplication():
    sim = run_small()
    distinct = group_distinct_items(sim)
    assert set(distinct) == {0, 1, 2}
    for count in distinct.values():
        # Never more distinct items than the group's summed capacity.
        assert 1 <= count <= 4 * 20
    duplication = cache_duplication(sim)
    assert duplication >= 1.0


def test_cache_overlap_matrix_properties():
    sim = run_small()
    matrix = cache_overlap_matrix(sim)
    assert matrix.shape == (12, 12)
    assert np.allclose(matrix, matrix.T)
    assert np.allclose(np.diag(matrix), 1.0)
    assert ((0.0 <= matrix) & (matrix <= 1.0)).all()


def same_group_mean_overlap(sim):
    matrix = cache_overlap_matrix(sim)
    groups = np.asarray(sim.group_of)
    same = groups[:, None] == groups[None, :]
    np.fill_diagonal(same, False)
    upper = np.triu(np.ones_like(same, dtype=bool), k=1)
    return matrix[same & upper].mean(), matrix[~same & upper].mean()


def test_coca_members_duplicate_but_grococa_suppresses_it():
    """Plain COCA members share hot sets, so their caches overlap more than
    strangers'; GroCoCa's admission control + cooperative replacement
    actively suppress exactly that same-group duplication."""
    cc_same, cc_cross = same_group_mean_overlap(run_small(CachingScheme.CC))
    gc_same, _gc_cross = same_group_mean_overlap(run_small(CachingScheme.GC))
    assert cc_same > cc_cross  # natural duplication under plain COCA
    assert gc_same < cc_same  # GroCoCa removes it
