"""The two-stage TCG row check against the whole-row check it replaced.

``tests/_monitor_reference.py`` keeps the previous revision's
``check_tcg_row``, which ran every TCG rule over the whole row on every
call.  ``src/`` first accepts a consistent row from its candidate pairs and
runs the rules only on the rows that test rejects.  Every test here builds
random managers, drives them with random MSS contacts, corrupts them in
every way the rules know, and requires both checks to report the same
violations — invariant, host, time and message — in collect mode, raise
the same first one in raise mode, and count the same checks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import InvariantMonitor, InvariantViolation
from repro.core.tcg import TCGManager
from tests._monitor_reference import WholeRowMonitor

N_DATA = 4  # few items: exact similarity ties (0, 1/2, 1) are common
# Reduced modulo the manager's size; mostly a few low indices, so contacts
# and corruptions meet on the same pairs even in a large manager.
CLIENT = st.one_of(st.integers(0, 4), st.integers(0, 39))
GRID = st.integers(0, 4).map(float)  # integer grid: wadm == Δ ties occur

# MSS contacts (Algorithms 1 and 2), each checked by the manager.
CONTACTS = st.one_of(
    st.tuples(st.just("location"), CLIENT, GRID, GRID),
    st.tuples(st.just("access"), CLIENT, st.integers(0, N_DATA - 1), st.integers(1, 2)),
)
# Corruptions, each breaking one thing a TCG rule looks at.
CORRUPTIONS = st.one_of(
    st.tuples(st.just("diagonal"), CLIENT),
    st.tuples(st.just("one-sided"), CLIENT, CLIENT),
    st.tuples(st.just("pair"), CLIENT, CLIENT),
    st.tuples(st.just("wadm"), CLIENT, CLIENT, st.booleans()),
    st.tuples(st.just("dot"), CLIENT, CLIENT, st.sampled_from([0.0, 0.5, 1.0, -1.0])),
    st.tuples(st.just("norm"), CLIENT, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    st.tuples(st.just("unlocate"), CLIENT),
    st.tuples(st.just("near-one-sided"), CLIENT, CLIENT),
    st.tuples(st.just("near-pair"), CLIENT, CLIENT),
)
# One op in three a corruption, so there are located pairs to corrupt.
OPS = st.lists(
    st.integers(0, 2).flatmap(lambda k: CORRUPTIONS if k == 0 else CONTACTS),
    min_size=10,
    max_size=40,
)
MANAGERS = st.tuples(
    st.integers(2, 40),
    st.sampled_from([0.0, 1.0, 2.0, 4.0]),  # Δ
    st.sampled_from([0.0, 0.5, 1.0]),  # δ
    st.sampled_from([0.0, 0.5, 1.0]),  # ω
)


class Clock:
    """Stands in for the kernel handing ``on_step`` its current time."""

    def __init__(self, now):
        self.now = now


def apply(tcg, op):
    """One contact or one corruption of ``tcg``."""
    kind, client, *rest = op
    n = tcg.n_clients
    i = client % n
    if kind == "location":
        tcg.record_location(i, rest)
    elif kind == "access":
        tcg.record_access(i, *rest)
    elif kind == "diagonal":
        tcg.member[i, i] = not tcg.member[i, i]
    elif kind == "norm":
        tcg._sq_norms[i] = rest[0]
    elif kind == "unlocate":
        tcg._has_location[i] = False
    else:
        j = rest[0] % n
        if kind == "one-sided":
            tcg.member[j, i] = not tcg.member[j, i]  # column i only
        elif kind == "pair":
            tcg.member[i, j] = tcg.member[j, i] = not tcg.member[i, j]
        elif kind == "wadm":
            # Across Δ: a pair inside it moves just outside, any other onto it.
            delta = tcg.distance_threshold
            moved = np.nextafter(delta, math.inf) if tcg.wadm[i, j] <= delta else delta
            tcg.wadm[i, j] = moved
            if rest[1]:
                tcg.wadm[j, i] = moved
        elif kind == "dot":
            tcg._dot[i][j] = rest[1]
        else:  # a neighbour set lies about j: on i's side, or on both
            sides = [(i, j)] if kind == "near-one-sided" else [(i, j), (j, i)]
            listed = j in tcg._neighbours[i]
            for a, b in sides:
                if listed:
                    tcg._neighbours[a].discard(b)
                else:
                    tcg._neighbours[a].add(b)


def key(violation):
    return (violation.invariant, violation.host, violation.sim_time, str(violation))


def replay(monitor_type, mode, manager, ops):
    """Run ``ops`` on a fresh manager watched by ``monitor_type``: the
    manager checks each contact's row at the contact's kernel time, and an
    audit checks every row after each op.  Returns the monitor and the
    violation raised, if any."""
    n, delta, similarity, omega = manager
    monitor = monitor_type(mode=mode)
    tcg = TCGManager(n, N_DATA, delta, similarity, omega, monitor=monitor)
    try:
        for step, op in enumerate(ops, 1):
            monitor.on_step(Clock(step - 1.0), float(step))
            apply(tcg, op)
            for client in range(n):
                monitor.check_tcg_row(tcg, client, step + 0.5)
    except InvariantViolation as error:
        return monitor, key(error)
    return monitor, None


@given(MANAGERS, OPS)
@settings(max_examples=150, deadline=None)
def test_two_stage_check_reports_what_the_whole_row_check_reports(manager, ops):
    new, _ = replay(InvariantMonitor, "collect", manager, ops)
    old, _ = replay(WholeRowMonitor, "collect", manager, ops)
    assert [key(v) for v in new.violations] == [key(v) for v in old.violations]
    assert new.checks_run == old.checks_run
    new, new_error = replay(InvariantMonitor, "raise", manager, ops)
    old, old_error = replay(WholeRowMonitor, "raise", manager, ops)
    assert new_error == old_error
    assert new.checks_run == old.checks_run


def watched(monitor_type):
    """Clients 0 and 1 at one spot reading the same item (one TCG), 2 out of
    range reading another, 3 never located."""
    monitor = monitor_type(mode="collect")
    tcg = TCGManager(4, N_DATA, 10.0, 0.5, 1.0, monitor=monitor)
    for client, (x, item) in enumerate([(0.0, 0), (0.0, 0), (50.0, 1)]):
        tcg.record_location(client, (x, 0.0))
        tcg.record_access(client, item)
    tcg.record_access(3, 0)
    assert [tcg.tcg_of(c) for c in range(4)] == [{1}, {0}, set(), set()]
    return tcg, monitor


@pytest.mark.parametrize(
    "ops, invariants",
    [
        ([("diagonal", 2)], {"tcg-self-membership"}),
        # 2 within Δ of itself and alike itself: still not its own member.
        ([("wadm", 2, 2, False), ("dot", 2, 2, 1.0), ("diagonal", 2)], {"tcg-self-membership"}),
        ([("one-sided", 0, 1)], {"tcg-asymmetry", "tcg-missing-member"}),
        ([("pair", 0, 1)], {"tcg-missing-member"}),
        # Items {0, 1} against {0, 2}: similarity exactly δ = 1/2.
        ([("access", 0, 1, 1), ("access", 1, 2, 1), ("pair", 0, 1)], {"tcg-missing-member"}),
        ([("pair", 0, 2)], {"tcg-distance-threshold", "tcg-similarity-threshold"}),
        ([("pair", 0, 3)], {"tcg-distance-threshold"}),  # 3 has no location
        ([("wadm", 0, 1, False)], {"tcg-distance-threshold"}),
        ([("dot", 0, 1, 0.0)], {"tcg-similarity-threshold"}),
        ([("norm", 1, 0.0)], {"tcg-similarity-threshold"}),
        # 0 forgets 1, then reads less like it: nobody rechecks the pair.
        ([("near-one-sided", 0, 1), ("access", 0, 1, 2)], {"tcg-similarity-threshold"}),
        # 2 walks up to 0 and 1, both forget the pair 0-2, then 2 reads like 0.
        (
            [("location", 2, 0.0, 0.0), ("near-pair", 2, 0), ("access", 2, 0, 2)],
            {"tcg-missing-member"},
        ),
        # No rule asks a member to keep its location.
        ([("unlocate", 1)], set()),
    ],
)
def test_each_corruption_is_reported_the_same_way(ops, invariants):
    """One hand-built case per corruption, so the property above cannot
    pass on managers that never break."""
    reports = []
    for monitor_type in (InvariantMonitor, WholeRowMonitor):
        tcg, monitor = watched(monitor_type)
        assert monitor.violations == []
        monitor.on_step(Clock(0.0), 7.0)
        for op in ops:
            apply(tcg, op)
        for client in range(tcg.n_clients):
            monitor.check_tcg_row(tcg, client, 9.0)
        reports.append(([key(v) for v in monitor.violations], monitor.checks_run))
    assert reports[0] == reports[1]
    assert {invariant for invariant, *_ in reports[0][0]} == invariants
