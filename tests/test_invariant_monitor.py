"""The runtime invariant oracle: clean runs, injected bugs, hook units."""

import math

import numpy as np
import pytest

from repro.cache.lru import LRUCache
from repro.check import InvariantMonitor, InvariantViolation, run_checked
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import results_to_dict
from repro.core.simulation import Simulation, run_simulation
from repro.core.tcg import TCGManager
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults
from repro.sim import Environment

SMALL = dict(
    n_clients=8,
    n_data=200,
    access_range=40,
    cache_size=8,
    group_size=4,
    measure_requests=8,
    warmup_min_time=30.0,
    warmup_max_time=60.0,
    ndp_enabled=False,
    seed=7,
)


# -- clean runs find nothing ---------------------------------------------------


@pytest.mark.parametrize("scheme", list(CachingScheme))
def test_clean_run_has_zero_violations(scheme):
    config = SimulationConfig(scheme=scheme, **SMALL)
    results, report = run_checked(config)
    assert report.ok
    assert report.checks_run > 0
    assert results.requests > 0
    # The run may end with a search still in flight; conservation over the
    # closed ones (finalize checks the in-flight remainder) must hold.
    assert report.searches_closed <= report.searches_opened
    assert sum(report.search_outcomes.values()) == report.searches_closed


def test_clean_run_with_ndp_faults_and_disconnections():
    """The heaviest protocol mix still satisfies every invariant."""
    config = SimulationConfig(
        scheme=CachingScheme.GC,
        faults=FaultPlan(
            p2p=LinkFaults(loss=0.1, burst_loss=0.3, burst_on=0.05, burst_off=0.5),
            uplink=LinkFaults(loss=0.05),
            downlink=LinkFaults(loss=0.05),
            crash=CrashFaults(rate=0.001, down_min=2.0, down_max=6.0),
        ),
        search_retry_limit=1,
        retrieve_retry_limit=1,
        p_disc=0.05,
        **{**SMALL, "ndp_enabled": True},
    )
    _, report = run_checked(config, mode="collect")
    assert report.violations == []
    assert report.checks_run > 0


def test_monitor_off_results_identical():
    """A monitored run changes nothing observable but the profile."""
    config = SimulationConfig(scheme=CachingScheme.CC, **SMALL)
    plain = results_to_dict(run_simulation(config))
    checked_results, report = run_checked(config)
    checked = results_to_dict(checked_results)
    # The audit process adds kernel events, so only the profile may move.
    plain.pop("profile")
    checked.pop("profile")
    assert report.ok
    assert checked == plain


# -- the oracle catches an injected bug ----------------------------------------


#: The planted bug: the capacity check always passes, so neither the
#: client's explicit-eviction path nor the cache's internal backstop in
#: ``insert`` ever fires and the cache grows past capacity.
_broken_is_full = property(lambda self: False)


def test_injected_overcapacity_admit_is_caught(monkeypatch):
    monkeypatch.setattr(LRUCache, "is_full", _broken_is_full)
    config = SimulationConfig(scheme=CachingScheme.LC, **SMALL)
    with pytest.raises(InvariantViolation) as excinfo:
        run_checked(config)
    violation = excinfo.value
    assert violation.invariant == "cache-capacity"
    assert violation.seed == config.seed
    assert violation.sim_time > 0.0
    assert isinstance(violation.host, int)
    assert 0 <= violation.host < config.n_clients
    assert violation.details["occupancy"] > violation.details["capacity"]
    assert "[cache-capacity]" in str(violation)


def test_injected_bug_collect_mode_keeps_running(monkeypatch):
    monkeypatch.setattr(LRUCache, "is_full", _broken_is_full)
    config = SimulationConfig(scheme=CachingScheme.LC, **SMALL)
    results, report = run_checked(config, mode="collect")
    assert not report.ok
    assert results.requests > 0  # the run survived to completion
    assert any(v.invariant == "cache-capacity" for v in report.violations)


# -- hook-level unit tests -----------------------------------------------------


class _FakeEnv:
    def __init__(self, now=5.0):
        self.now = now


class _FakeCondition:
    def __init__(self, env, fired, members):
        self.env = env
        self._fired_count = fired
        self.events = [object()] * members


@pytest.mark.parametrize("interval", [0, -1, math.nan, math.inf])
def test_audit_interval_must_be_positive_and_finite(interval):
    """Rejected at construction, not by the kernel once the audit runs."""
    with pytest.raises(ValueError, match=f"audit_interval .* got {interval}"):
        InvariantMonitor(audit_interval=interval)


def test_schedule_in_past_hook():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.on_schedule(_FakeEnv(now=5.0), when=4.0)
    assert excinfo.value.invariant == "kernel-schedule-in-past"
    assert excinfo.value.details["when"] == 4.0


def test_step_backwards_hook():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.on_step(_FakeEnv(now=5.0), when=3.0)
    assert excinfo.value.invariant == "kernel-time-monotonicity"


def _run_one_process(body, mode):
    monitor = InvariantMonitor(mode=mode)
    env = Environment(monitor=monitor)
    env.process(body(env))
    env.run()
    return monitor, env


def test_numpy_scalar_on_the_clock_is_a_violation():
    """The kernel sets ``now`` to the scheduled time, so one numpy delay
    would turn every later ``now + delay`` into a numpy scalar too."""

    def body(env):
        yield env.timeout(np.float64(0.5))

    monitor, env = _run_one_process(body, "collect")
    assert [v.invariant for v in monitor.violations] == ["kernel-clock-numpy-scalar"]
    violation = monitor.violations[0]
    assert violation.host is None and violation.sim_time == 0.0
    assert violation.details == {"when": 0.5, "type": "float64"}
    assert isinstance(env.now, np.float64)  # what the rule exists to prevent
    with pytest.raises(InvariantViolation) as excinfo:
        _run_one_process(body, "raise")
    assert excinfo.value.invariant == "kernel-clock-numpy-scalar"
    assert excinfo.value.sim_time == 0.0 and excinfo.value.details["when"] == 0.5


def test_python_numbers_on_the_clock_are_not():
    def body(env):
        yield env.timeout(1)  # an int delay: 0.0 + 1 is a float
        yield env.timeout_at(2.5)
        yield env.timeout_at(4)  # an int on the clock is still a Python number

    monitor, env = _run_one_process(body, "collect")
    assert monitor.violations == []
    assert env.now == 4 and not isinstance(env.now, np.generic)


def test_condition_overcount_hook():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.on_condition_fire(_FakeCondition(_FakeEnv(), fired=3, members=2))
    assert excinfo.value.invariant == "kernel-condition-overcount"


def test_search_concurrency_hook():
    monitor = InvariantMonitor()
    monitor.on_search_open(host=0, sid=(0, 1), now=1.0)
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.on_search_open(host=0, sid=(0, 2), now=2.0)
    assert excinfo.value.invariant == "search-concurrency"
    assert excinfo.value.host == 0


def test_search_close_mismatch_hook():
    monitor = InvariantMonitor()
    monitor.on_search_open(host=3, sid=(3, 1), now=1.0)
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.on_search_close(host=3, sid=(3, 9), outcome="reply", now=2.0)
    assert excinfo.value.invariant == "search-conservation"


def test_search_unknown_outcome_hook():
    monitor = InvariantMonitor()
    monitor.on_search_open(host=1, sid=(1, 1), now=1.0)
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.on_search_close(host=1, sid=(1, 1), outcome="vanished", now=2.0)
    assert excinfo.value.invariant == "search-unknown-outcome"


def test_cache_capacity_hook_direct():
    monitor = InvariantMonitor()
    cache = LRUCache(capacity=1)
    # Bypass insert() to build an illegal two-entry state.
    from repro.cache.lru import CacheEntry

    cache._entries[1] = CacheEntry(item=1)
    cache._entries[2] = CacheEntry(item=2)
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check_client_cache(host=4, cache=cache, now=10.0)
    assert excinfo.value.invariant == "cache-capacity"


def test_cache_entry_integrity_hook():
    monitor = InvariantMonitor()
    from repro.cache.lru import CacheEntry

    cache = LRUCache(capacity=4)
    cache._entries[1] = CacheEntry(item=99)  # key/entry mismatch
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check_client_cache(host=0, cache=cache, now=0.0)
    assert excinfo.value.invariant == "cache-entry-integrity"


def test_server_reply_hooks():
    monitor = InvariantMonitor()
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check_server_reply(
            client=2,
            expiry=1.0,
            retrieve_time=5.0,
            added=set(),
            removed=set(),
            now=5.0,
        )
    assert excinfo.value.invariant == "server-expiry-in-past"
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check_server_reply(
            client=2,
            expiry=math.inf,
            retrieve_time=9.0,
            added={1},
            removed={1},
            now=5.0,
        )
    # retrieve-from-future fires before the overlap check.
    assert excinfo.value.invariant == "server-retrieve-from-future"
    with pytest.raises(InvariantViolation) as excinfo:
        monitor.check_server_reply(
            client=2,
            expiry=math.inf,
            retrieve_time=5.0,
            added={1, 2},
            removed={2},
            now=5.0,
        )
    assert excinfo.value.invariant == "membership-delta-overlap"


class _FakeNDP:
    """A neighbour table and its horizon, as ``check_ndp`` reads them."""

    liveness_horizon = 3.0

    def __init__(self, links):
        self._last_heard = np.full((4, 4), -np.inf)
        for (i, j), heard in links.items():
            self._last_heard[i, j] = heard


#: name -> (table entries at now = 10, the violations check_ndp reports).
_NDP_CASES = {
    # Symmetric pairs within the horizon and pairs never heard: the one-pass
    # test accepts it.
    "clean": ({(0, 1): 10.0, (1, 0): 8.0, (2, 3): 9.0, (3, 2): 9.0}, []),
    # A pair heard on one side long ago: the rules accept it.
    "one-sided-stale": ({(0, 1): 10.0, (1, 0): 10.0, (0, 2): 1.0}, []),
    "one-sided-fresh": (
        {(0, 1): 10.0, (1, 0): 10.0, (2, 3): 9.5},
        [("ndp-symmetry", "host 2 holds a fresh link to 3 that 3 has no record of", 2)],
    ),
    "skewed": (
        {(0, 1): 10.0, (1, 0): 5.0},
        [("ndp-symmetry", "neighbour-table skew 5.0 exceeds the staleness bound 3.0", None)],
    ),
    "future": (
        {(0, 1): 11.0, (1, 0): 11.0},
        [("ndp-beacon-from-future",
          "neighbour table records a beacon after the current time", None)],
    ),
    "future-skewed-one-sided": (
        {(0, 1): 12.0, (1, 0): 6.0, (3, 1): 9.0},
        [
            ("ndp-beacon-from-future",
             "neighbour table records a beacon after the current time", None),
            ("ndp-symmetry",
             "neighbour-table skew 6.0 exceeds the staleness bound 3.0", None),
            ("ndp-symmetry", "host 3 holds a fresh link to 1 that 1 has no record of", 3),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(_NDP_CASES))
def test_ndp_table_hook(case):
    """Each faulty table is reported rule by rule, in order, whichever
    path accepts the clean ones; every call counts one check."""
    links, expected = _NDP_CASES[case]
    monitor = InvariantMonitor(mode="collect")
    monitor.check_ndp(_FakeNDP(links), now=10.0)
    _assert_reported(monitor, expected)


def test_ndp_table_hook_under_an_infinite_horizon():
    """Every one-sided link is fresh when no beacon goes stale; a one-sided
    pair is then apart by no more than the horizon, and still reported."""
    ndp = _FakeNDP({(0, 1): 10.0, (1, 0): 10.0, (0, 2): 1.0})
    ndp.liveness_horizon = math.inf
    monitor = InvariantMonitor(mode="collect")
    monitor.check_ndp(ndp, now=10.0)
    _assert_reported(
        monitor,
        [("ndp-symmetry", "host 0 holds a fresh link to 2 that 2 has no record of", 0)],
    )


def _assert_reported(monitor, expected):
    report = monitor.report()
    assert report.checks_run == 1
    assert [
        (v.invariant, str(v).split(": ", 1)[1], v.host) for v in report.violations
    ] == expected
    assert all(v.sim_time == 10.0 for v in report.violations)


def _watched_tcg():
    """Clients 0-2 together and alike (one TCG); 3 alike but out of range;
    4 in range but reading something else."""
    monitor = InvariantMonitor(mode="collect")
    tcg = TCGManager(5, 10, 50.0, 0.5, 1.0, monitor=monitor)  # ω = 1: no memory
    for client, x in enumerate((0.0, 10.0, 20.0, 500.0, 5.0)):
        tcg.record_location(client, (x, 0.0))
        tcg.record_access(client, 7 if client == 4 else 3)
    assert [tcg.tcg_of(c) for c in range(5)] == [{1, 2}, {0, 2}, {0, 1}, set(), set()]
    return tcg, monitor


def test_tcg_rules_pass_a_clean_manager():
    tcg, monitor = _watched_tcg()
    for client in range(tcg.n_clients):
        monitor.check_tcg_row(tcg, client)
    assert monitor.violations == []
    assert monitor.checks_run >= 10 + tcg.n_clients  # one per contact, one per row


def test_tcg_self_membership_rule():
    tcg, monitor = _watched_tcg()
    tcg.member[3, 3] = True
    monitor.check_tcg_row(tcg, 3)
    assert [v.invariant for v in monitor.violations] == ["tcg-self-membership"]


def test_tcg_asymmetry_rule():
    tcg, monitor = _watched_tcg()
    tcg.member[2, 0] = False  # row 0 still lists 2; column 0 no longer does
    monitor.check_tcg_row(tcg, 0)
    assert [v.invariant for v in monitor.violations] == ["tcg-asymmetry"]


def test_tcg_distance_threshold_rule():
    tcg, monitor = _watched_tcg()
    tcg.wadm[0, 1] = 50.5
    monitor.check_tcg_row(tcg, 0)
    assert [v.invariant for v in monitor.violations] == ["tcg-distance-threshold"]
    assert "50.5" in str(monitor.violations[0])


def test_tcg_similarity_threshold_rule():
    tcg, monitor = _watched_tcg()
    tcg._dot[0][1] = 0.0  # clients 0 and 1 now look unrelated
    monitor.check_tcg_row(tcg, 0)
    assert [v.invariant for v in monitor.violations] == ["tcg-similarity-threshold"]


def test_tcg_missing_member_rule():
    tcg, monitor = _watched_tcg()
    tcg.member[0, 1] = tcg.member[1, 0] = False  # dropped on both sides
    monitor.check_tcg_row(tcg, 0)
    assert [v.invariant for v in monitor.violations] == ["tcg-missing-member"]
    assert "[1]" in str(monitor.violations[0])


def _forget(tcg, client, other, both_sides):
    tcg._neighbours[client].discard(other)
    if both_sides:
        tcg._neighbours[other].discard(client)


def _invent(tcg, client, other, both_sides):
    tcg._neighbours[client].add(other)
    if both_sides:
        tcg._neighbours[other].add(client)


def test_stale_cached_similarity_is_caught_in_both_directions():
    """A location report rechecks only the pairs that enter or leave the
    client's neighbour set.  A neighbour it already lists by mistake is not
    "entering", which leaves a member out of row and column alike, and only
    the converse rule can see that; a neighbour it has lost is never
    rechecked on access, so a pair that stopped being alike stays.  The
    manager's own hook reports either, whether one set lies or both do."""
    for both_sides in (False, True):
        tcg, monitor = _watched_tcg()
        _invent(tcg, 3, 1, both_sides)
        tcg.record_location(3, (15.0, 0.0))  # walks into range of everybody
        assert tcg.tcg_of(3) == {0, 2} and tcg.tcg_of(1) == {0, 2}
        assert [(v.invariant, v.host) for v in monitor.violations] == [
            ("tcg-missing-member", 3)
        ]
        assert "[1]" in str(monitor.violations[0])
        tcg, monitor = _watched_tcg()
        tcg.record_location(3, (15.0, 0.0))
        assert tcg.tcg_of(3) == {0, 1, 2} and monitor.violations == []
        _forget(tcg, 3, 0, both_sides)
        tcg.record_access(3, 7, count=2)  # 3 now reads mostly what 4 reads
        assert tcg.tcg_of(3) == {0, 4}
        assert [(v.invariant, v.host) for v in monitor.violations] == [
            ("tcg-similarity-threshold", 3)
        ]
        # An access of 0 rechecks 0's own neighbours, which heals the pair
        # while 0 still lists 3.
        tcg.record_access(0, 3)
        if both_sides:
            assert tcg.tcg_of(3) == {0, 4}
            assert [(v.invariant, v.host) for v in monitor.violations[1:]] == [
                ("tcg-similarity-threshold", 0)
            ]
        else:
            assert tcg.tcg_of(3) == {4} and tcg.tcg_of(0) == {1, 2}
            assert len(monitor.violations) == 1


def test_stale_cached_distance_is_caught():
    """``record_access`` rechecks the client's neighbour set only."""
    for both_sides in (False, True):
        tcg, monitor = _watched_tcg()
        _forget(tcg, 4, 0, both_sides)  # 0 and 4 are 5 m apart
        tcg.record_access(4, 3)  # now 4 reads what 0-3 read, too
        assert tcg.tcg_of(4) == {1, 2}
        assert [(v.invariant, v.host) for v in monitor.violations] == [
            ("tcg-missing-member", 4)
        ]


def test_tcg_violations_between_audits_carry_the_kernel_time():
    """The manager checks a row on every contact without passing a time; a
    violation found there is stamped with the kernel time of that contact."""
    # Δ inside the group span and ω = 1: pairs cross Δ often, and each
    # crossing makes a location contact recheck the pairs it moves.
    config = SimulationConfig(
        scheme=CachingScheme.GC, distance_threshold=40.0, omega=1.0, **SMALL
    )
    monitor = InvariantMonitor(mode="collect")
    simulation = Simulation(config, monitor=monitor)
    env, tcg = simulation.env, simulation.tcg
    stamped = []

    def timed(record):
        def contact(client, *args):
            seen = len(monitor.violations)
            record(client, *args)
            stamped.extend((v.sim_time, env.now) for v in monitor.violations[seen:])

        return contact

    tcg.record_location = timed(tcg.record_location)
    tcg.record_access = timed(tcg.record_access)

    def corrupt():
        # Every neighbour set lies (it lists exactly the clients it should
        # not) until a location contact of its client rewrites it; a contact
        # in between rechecks the wrong pairs.
        yield env.timeout(20.0)
        everybody = set(range(tcg.n_clients))
        while True:
            for client, near in enumerate(tcg._neighbours):
                tcg._neighbours[client] = everybody - near - {client}
            yield env.timeout(1.0)

    env.process(corrupt())
    simulation.run()
    assert stamped
    assert all(sim_time == now for sim_time, now in stamped)
    assert not any(math.isnan(v.sim_time) for v in monitor.violations)


def test_tcg_rules_raise_by_default():
    tcg, _ = _watched_tcg()
    tcg.member[1, 1] = True
    with pytest.raises(InvariantViolation) as excinfo:
        InvariantMonitor().check_tcg_row(tcg, 1, now=4.0)
    assert excinfo.value.invariant == "tcg-self-membership"
    assert excinfo.value.host == 1 and excinfo.value.sim_time == 4.0


def test_collect_mode_records_instead_of_raising():
    monitor = InvariantMonitor(mode="collect")
    monitor.on_schedule(_FakeEnv(now=5.0), when=4.0)
    report = monitor.report()
    assert not report.ok
    assert [v.invariant for v in report.violations] == ["kernel-schedule-in-past"]
    assert "1 violations" in report.summary()


def test_monitor_constructor_validation():
    with pytest.raises(ValueError):
        InvariantMonitor(mode="panic")
    with pytest.raises(ValueError):
        InvariantMonitor(audit_interval=0.0)
