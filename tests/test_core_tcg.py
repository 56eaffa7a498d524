"""Tests for TCG discovery (Algorithms 1-3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tcg import TCGManager


def manager(n=4, n_data=100, delta=50.0, sim=0.5, omega=0.5):
    return TCGManager(n, n_data, delta, sim, omega)


def test_initial_state_no_groups():
    m = manager()
    assert m.tcg_of(0) == set()
    assert math.isinf(m.weighted_distance(0, 1))
    assert m.similarity(0, 1) == 0.0


def test_first_location_pair_sets_distance_directly():
    m = manager()
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (30.0, 40.0))
    assert m.weighted_distance(0, 1) == pytest.approx(50.0)
    assert m.weighted_distance(1, 0) == pytest.approx(50.0)


def test_ewma_distance_blending():
    m = manager(omega=0.5)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (100.0, 0.0))  # initial 100
    m.record_location(0, (60.0, 0.0))  # new distance 40 -> 0.5*40 + 0.5*100 = 70
    assert m.weighted_distance(0, 1) == pytest.approx(70.0)


def test_omega_one_tracks_latest_distance_only():
    m = manager(omega=1.0)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (100.0, 0.0))
    m.record_location(0, (90.0, 0.0))
    assert m.weighted_distance(0, 1) == pytest.approx(10.0)


def test_similarity_identical_patterns():
    m = manager()
    for item in (1, 2, 3):
        m.record_access(0, item)
        m.record_access(1, item)
    assert m.similarity(0, 1) == pytest.approx(1.0)


def test_similarity_disjoint_patterns_zero():
    m = manager()
    m.record_access(0, 1)
    m.record_access(1, 2)
    assert m.similarity(0, 1) == 0.0


def test_similarity_self_is_one():
    m = manager()
    assert m.similarity(2, 2) == 1.0


def test_similarity_symmetric_and_bounded():
    m = manager()
    rng = np.random.default_rng(0)
    for _ in range(200):
        m.record_access(int(rng.integers(0, 4)), int(rng.integers(0, 100)))
    for i in range(4):
        for j in range(4):
            assert m.similarity(i, j) == pytest.approx(m.similarity(j, i))
            assert -1e-9 <= m.similarity(i, j) <= 1.0 + 1e-9


def test_incremental_similarity_matches_direct_cosine():
    m = manager(n=3, n_data=20)
    rng = np.random.default_rng(1)
    for _ in range(300):
        m.record_access(int(rng.integers(0, 3)), int(rng.integers(0, 20)))
    counts = np.array([[m.access_count(c, item) for item in range(20)] for c in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            direct = float(
                counts[i] @ counts[j]
                / (np.linalg.norm(counts[i]) * np.linalg.norm(counts[j]))
            )
            assert m.similarity(i, j) == pytest.approx(direct, rel=1e-9)


def test_membership_requires_both_conditions():
    m = manager(delta=50.0, sim=0.5)
    # Close but dissimilar.
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (10.0, 0.0))
    m.record_access(0, 1)
    m.record_access(1, 2)
    assert m.tcg_of(0) == set()
    # Now make them similar -> pair forms.
    for _ in range(5):
        m.record_access(0, 3)
        m.record_access(1, 3)
    assert 1 in m.tcg_of(0)
    assert 0 in m.tcg_of(1)  # symmetric


def test_membership_breaks_when_distance_grows():
    m = manager(delta=50.0, sim=0.5, omega=1.0)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (10.0, 0.0))
    for _ in range(3):
        m.record_access(0, 7)
        m.record_access(1, 7)
    assert 1 in m.tcg_of(0)
    m.record_location(1, (500.0, 0.0))
    assert 1 not in m.tcg_of(0)
    assert 0 not in m.tcg_of(1)


def test_no_membership_without_location():
    m = manager()
    for _ in range(3):
        m.record_access(0, 7)
        m.record_access(1, 7)
    assert m.tcg_of(0) == set()  # similarity alone is not enough


def test_drain_changes_delivers_asynchronously():
    m = manager(delta=50.0, sim=0.4)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (5.0, 0.0))
    m.record_access(0, 1)
    m.record_access(1, 1)
    added, removed = m.drain_changes(0)
    assert added == {1}
    assert removed == set()
    # A second drain with no changes is empty.
    assert m.drain_changes(0) == (set(), set())
    # Break the pair; the removal is announced on next contact.
    m.record_location(1, (500.0, 0.0))
    m.record_location(1, (500.0, 0.0))  # EWMA needs two reports at ω=0.5
    added, removed = m.drain_changes(0)
    assert removed == {1}


def test_full_view_marks_announced():
    m = manager(delta=50.0, sim=0.4)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (5.0, 0.0))
    m.record_access(0, 1)
    m.record_access(1, 1)
    assert m.full_view(0) == {1}
    assert m.drain_changes(0) == (set(), set())


def test_record_access_count_batch():
    m = manager()
    m.record_access(0, 5, count=4)
    m.record_access(1, 5, count=4)
    assert m.similarity(0, 1) == pytest.approx(1.0)
    assert m.access_count(0, 5) == 4
    assert m.access_counts == {5: {0: 4, 1: 4}}  # who never accessed has no key


def test_validation():
    with pytest.raises(ValueError):
        TCGManager(0, 10, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        TCGManager(2, 10, -1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        TCGManager(2, 10, 1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        TCGManager(2, 10, 1.0, 0.5, 2.0)
    m = manager()
    with pytest.raises(ValueError):
        m.record_access(0, 1, count=0)


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -1.0])
def test_distance_threshold_must_be_finite_and_non_negative(delta):
    """A NaN Δ used to construct (``nan < 0`` is False) and then never
    formed a TCG; an infinite one would make every unlocated pair "near"."""
    with pytest.raises(ValueError, match="distance threshold must be finite") as excinfo:
        TCGManager(4, 10, delta, 0.1, 0.5)
    assert repr(delta) in str(excinfo.value)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=120))
@settings(max_examples=40)
def test_member_matrix_always_symmetric_no_self(accesses):
    m = manager(n=4, n_data=10, delta=1000.0, sim=0.3)
    rng = np.random.default_rng(2)
    for index, (client, item) in enumerate(accesses):
        if index % 5 == 0:
            m.record_location(client, tuple(rng.uniform(0, 100, size=2)))
        m.record_access(client, item)
    assert np.array_equal(m.member, m.member.T)
    assert not m.member.diagonal().any()


# -- hostile input is refused at the boundary, before any state moves ----------


def settled_pair():
    m = manager(n=3, n_data=10, delta=50.0, sim=0.4)
    for client in (0, 1):
        m.record_location(client, (5.0 * client, 0.0))
        m.record_access(client, 1)
    assert m.tcg_of(0) == {1}
    return m


def snapshot(m):
    arrays = [
        array.copy()
        for array in (m.wadm, m.member, m._has_location, m._x, m._y)
    ]
    counts = {item: dict(holders) for item, holders in m.access_counts.items()}
    neighbours = [set(near) for near in m._neighbours]
    dots = [dict(row) for row in m._dot]
    announced = [set(told) for told in m._announced]
    return (
        arrays, counts, neighbours, dots, list(m._sq_norms), announced,
        m.membership_changes,
    )


def assert_untouched(m, before):
    arrays, *rest = snapshot(m)
    for was, now in zip(before[0], arrays):
        assert np.array_equal(was, now)
    assert rest == list(before[1:])


@pytest.mark.parametrize(
    "position, named",
    [
        ((math.nan, 0.0), "nan"),
        ((0.0, math.inf), "inf"),
        ((1.0, 2.0, 3.0), "3."),
        (7.0, "7."),
        ((), "[]"),
    ],
)
def test_record_location_rejects_bad_position(position, named):
    m = settled_pair()
    before = snapshot(m)
    with pytest.raises(ValueError, match="two finite numbers") as excinfo:
        m.record_location(1, position)
    assert named in str(excinfo.value)
    assert_untouched(m, before)
    # The pair is still a pair, and still reacts to real reports.
    m.record_location(1, (6.0, 0.0))
    assert m.tcg_of(0) == {1}


def test_nan_position_no_longer_poisons_the_pair_for_good():
    """At the parent a NaN report made wadm[0, 1] NaN, and because first
    contact is ``isinf(old)`` the EWMA never recovered."""
    m = settled_pair()
    with pytest.raises(ValueError):
        m.record_location(1, (math.nan, 0.0))
    assert np.isfinite(m.wadm[0, 1]) and m.wadm[0, 1] == m.wadm[1, 0]


@pytest.mark.parametrize("client", [-1, 3, 10**6])
def test_client_out_of_range_is_rejected(client):
    m = settled_pair()
    m.record_location(2, (2.0, 0.0))
    m.record_access(2, 1)
    assert m.tcg_of(2) == {0, 1}  # news the last client has not been told
    before = snapshot(m)
    with pytest.raises(ValueError, match=r"client must be in \[0, 3\)") as excinfo:
        m.record_location(client, (1.0, 1.0))
    assert str(client) in str(excinfo.value)
    with pytest.raises(ValueError, match=r"client must be in \[0, 3\)"):
        m.record_access(client, 1)
    # A negative index must not answer for (or drain) the last client.
    queries = [
        lambda: m.tcg_of(client),
        lambda: m.drain_changes(client),
        lambda: m.full_view(client),
        lambda: m.similarity_row(client),
        lambda: m.access_count(client, 1),
        lambda: m.similarity(client, 0),
        lambda: m.similarity(0, client),
        lambda: m.weighted_distance(client, 0),
        lambda: m.weighted_distance(0, client),
    ]
    for query in queries:
        with pytest.raises(ValueError, match=r"client must be in \[0, 3\)"):
            query()
    assert_untouched(m, before)


@pytest.mark.parametrize("item", [-1, 10])
def test_item_out_of_range_is_rejected(item):
    m = settled_pair()
    before = snapshot(m)
    with pytest.raises(ValueError, match=r"item must be in \[0, 10\)") as excinfo:
        m.record_access(0, item)
    assert str(item) in str(excinfo.value)
    assert_untouched(m, before)
