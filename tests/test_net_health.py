"""The failure-aware retrieve layer: EWMA, breaker, policies, tracker.

The circuit breaker's contract is exercised two ways: directed unit
tests for each documented transition, and a Hypothesis rule-based state
machine driving arbitrary interleavings of attempts, successes, failures
and clock advances against a reference model of the closed/open/half-open
automaton.
"""

import math

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.net.health import (
    BREAKER_STATES,
    CLOSED,
    HALF_OPEN,
    LEGAL_TRANSITIONS,
    OPEN,
    CircuitBreaker,
    Ewma,
    PeerHealthTracker,
)
from repro.sim.random import RandomStreams


def reply(peer, path=None):
    return {"peer": peer, "path": path if path is not None else [0, peer]}


def tracker(policy="arrival", threshold=0, cooldown=1.0, rng=None, alpha=0.3):
    return PeerHealthTracker(
        alpha=alpha,
        breaker_threshold=threshold,
        breaker_cooldown=cooldown,
        policy=policy,
        rng=rng,
    )


# -- Ewma ---------------------------------------------------------------------


def test_ewma_none_until_first_observation():
    ewma = Ewma(0.5)
    assert ewma.value is None
    ewma.observe(4.0)
    assert ewma.value == 4.0
    ewma.observe(8.0)
    assert ewma.value == pytest.approx(6.0)


def test_ewma_rejects_bad_alpha():
    with pytest.raises(ValueError):
        Ewma(0.0)
    with pytest.raises(ValueError):
        Ewma(1.5)


# -- CircuitBreaker: directed transitions -------------------------------------


def test_breaker_trips_after_consecutive_failures():
    breaker = CircuitBreaker(threshold=3, cooldown=2.0)
    assert breaker.record_failure(0.0) == []
    assert breaker.record_failure(1.0) == []
    assert breaker.record_failure(2.0) == [(CLOSED, OPEN)]
    assert breaker.state == OPEN
    assert breaker.trips == 1
    assert not breaker.can_attempt(3.0)
    assert breaker.can_attempt(4.0)  # cooldown elapsed


def test_breaker_success_resets_the_failure_streak():
    breaker = CircuitBreaker(threshold=2, cooldown=1.0)
    breaker.record_failure(0.0)
    breaker.record_success(0.5)
    assert breaker.record_failure(1.0) == []  # streak restarted
    assert breaker.state == CLOSED


def test_breaker_probe_success_closes():
    breaker = CircuitBreaker(threshold=1, cooldown=1.0)
    breaker.record_failure(0.0)
    assert breaker.begin_attempt(1.5) == [(OPEN, HALF_OPEN)]
    assert breaker.probe_in_flight
    assert not breaker.can_attempt(1.6)  # one probe at a time
    assert breaker.record_success(2.0) == [(HALF_OPEN, CLOSED)]
    assert breaker.state == CLOSED


def test_breaker_probe_failure_reopens():
    breaker = CircuitBreaker(threshold=1, cooldown=1.0)
    breaker.record_failure(0.0)
    breaker.begin_attempt(1.5)
    assert breaker.record_failure(2.0) == [(HALF_OPEN, OPEN)]
    assert breaker.trips == 2
    assert not breaker.can_attempt(2.5)  # fresh cooldown from the re-trip
    assert breaker.can_attempt(3.1)


def test_breaker_ignores_stale_outcomes_while_open():
    breaker = CircuitBreaker(threshold=1, cooldown=10.0)
    breaker.record_failure(0.0)
    assert breaker.record_success(1.0) == []  # pre-trip attempt resolving late
    assert breaker.record_failure(1.0) == []
    assert breaker.state == OPEN


def test_breaker_begin_attempt_guards_against_misuse():
    breaker = CircuitBreaker(threshold=1, cooldown=10.0)
    breaker.record_failure(0.0)
    with pytest.raises(RuntimeError):
        breaker.begin_attempt(1.0)


# -- CircuitBreaker: Hypothesis state machine ---------------------------------


class BreakerMachine(RuleBasedStateMachine):
    """Arbitrary interleavings never violate the breaker contract."""

    def __init__(self):
        super().__init__()
        self.breaker = CircuitBreaker(threshold=2, cooldown=5.0)
        self.now = 0.0
        self.transitions = []

    @rule(delta=st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def advance_clock(self, delta):
        self.now += delta

    @precondition(lambda self: self.breaker.can_attempt(self.now))
    @rule()
    def attempt(self):
        self.transitions.extend(self.breaker.begin_attempt(self.now))

    @rule()
    def succeed(self):
        self.transitions.extend(self.breaker.record_success(self.now))

    @rule()
    def fail(self):
        self.transitions.extend(self.breaker.record_failure(self.now))

    @invariant()
    def state_is_legal(self):
        assert self.breaker.state in BREAKER_STATES

    @invariant()
    def transitions_are_legal_and_chain(self):
        previous = CLOSED
        for old, new in self.transitions:
            assert (old, new) in LEGAL_TRANSITIONS
            assert old == previous
            previous = new
        assert previous == self.breaker.state

    @invariant()
    def open_means_no_attempt_during_cooldown(self):
        if self.breaker.state == OPEN:
            before_cooldown = self.breaker.opened_at + self.breaker.cooldown
            assert not self.breaker.can_attempt(
                min(self.now, before_cooldown - 1e-9)
            )

    @invariant()
    def probe_exclusivity(self):
        if self.breaker.probe_in_flight:
            assert self.breaker.state == HALF_OPEN
            assert not self.breaker.can_attempt(self.now)

    @invariant()
    def counters_consistent(self):
        trips = sum(1 for _old, new in self.transitions if new == OPEN)
        # The very first trip happens without a begin_attempt transition
        # (CLOSED -> OPEN), so trips recorded by the breaker must match
        # the OPEN-entering transitions it returned.
        assert self.breaker.trips == trips
        assert self.breaker.consecutive_failures < self.breaker.threshold


TestBreakerStateMachine = BreakerMachine.TestCase


# -- scoring policies ---------------------------------------------------------


def test_arrival_policy_matches_legacy_first_reply():
    t = tracker("arrival")
    replies = [reply(3), reply(1), reply(2)]
    assert t.select(replies, 0.0) is replies[0]


def test_least_pending_prefers_idle_peer_then_arrival_order():
    t = tracker("least-pending")
    t.begin_attempt(3, 0.0)  # peer 3 now has one outstanding retrieve
    replies = [reply(3), reply(1), reply(2)]
    assert t.select(replies, 0.0) is replies[1]
    # All equal: falls back to arrival order.
    t2 = tracker("least-pending")
    assert t2.select(replies, 0.0) is replies[0]


def test_latency_aware_prefers_fast_peer_and_explores_unknown():
    t = tracker("latency-aware")
    t.begin_attempt(1, 0.0)
    t.record_success(1, 1.0, latency=1.0, hops=1)
    t.begin_attempt(2, 1.0)
    t.record_success(2, 1.1, latency=0.1, hops=1)
    assert t.select([reply(1), reply(2)], 2.0) is not None
    assert t.select([reply(1), reply(2)], 2.0)["peer"] == 2
    # An unknown peer scores 0 and is explored before any known one.
    assert t.select([reply(1), reply(9)], 2.0)["peer"] == 9


def test_power_aware_prefers_short_paths():
    t = tracker("power-aware")
    far = reply(1, path=[0, 5, 1])  # two hops
    near = reply(2, path=[0, 2])  # one hop
    assert t.select([far, near], 0.0) is near


def test_epsilon_greedy_needs_a_stream_and_is_deterministic():
    t = tracker("epsilon-greedy")
    with pytest.raises(RuntimeError):
        t.select([reply(1), reply(2)], 0.0)
    picks = []
    for _ in range(2):
        rng = RandomStreams(7).stream("peer-policy")
        t = tracker("epsilon-greedy", rng=rng)
        picks.append(
            [t.select([reply(1), reply(2)], 0.0)["peer"] for _ in range(20)]
        )
    assert picks[0] == picks[1]  # same seed, same exploration sequence


def test_unknown_policy_rejected():
    with pytest.raises(KeyError, match="unknown peer-scoring policy"):
        tracker("fastest-first")


# -- tracker lifecycle --------------------------------------------------------


def test_select_skips_circuit_broken_peers_and_reports_exhaustion():
    t = tracker("arrival", threshold=1, cooldown=100.0)
    t.begin_attempt(1, 0.0)
    t.record_failure(1, 0.0)  # trips peer 1 open
    assert t.counts["breaker_trips"] == 1
    replies = [reply(1), reply(2)]
    assert t.select(replies, 1.0)["peer"] == 2
    t.begin_attempt(2, 1.0)
    t.record_failure(2, 1.0)
    assert t.select(replies, 2.0) is None  # everyone broken -> MSS fallback


def test_probe_attempt_counts_and_pending_balances():
    t = tracker("arrival", threshold=1, cooldown=1.0)
    t.begin_attempt(1, 0.0)
    t.record_failure(1, 0.0)
    state, transitions = t.begin_attempt(1, 2.0)
    assert state == "half-open"
    assert transitions == [(OPEN, HALF_OPEN)]
    assert t.counts["breaker_probes"] == 1
    t.record_success(1, 2.5, latency=0.5, hops=1)
    assert t.peer(1).pending == 0
    assert t.peer(1).breaker.state == CLOSED


def test_note_abandoned_releases_slot_without_penalty():
    t = tracker("arrival")
    t.begin_attempt(1, 0.0)
    t.note_abandoned(1)
    assert t.peer(1).pending == 0
    assert t.peer(1).failure_rate.value is None


def test_hedge_delay_requires_an_estimate():
    t = tracker("arrival")
    assert t.hedge_delay(1, 0.9) is None  # never hedge blind
    t.begin_attempt(1, 0.0)
    t.record_success(1, 1.0, latency=2.0, hops=1)
    delay = t.hedge_delay(1, 0.9)
    assert delay == pytest.approx(2.0 * -math.log(0.1))


def test_counters_snapshot():
    t = tracker("arrival")
    t.note("hedges")
    t.note("hedge_wins")
    snapshot = t.counters()
    assert snapshot["hedges"] == 1
    snapshot["hedges"] = 99
    assert t.counts["hedges"] == 1  # counters() returns a copy
