"""Runtime invariant oracle for the COCA/GroCoCa simulator.

:class:`InvariantMonitor` is a pluggable correctness oracle: when an
instance is handed to :class:`~repro.core.simulation.Simulation` (or
:func:`~repro.core.simulation.run_simulation`), hook points threaded
through the simulation stack feed it every state transition worth
checking:

* **kernel** — event-time monotonicity, schedule-in-the-past detection,
  no numpy scalar on the clock, heap bookkeeping (pushes − pops ==
  pending events) and condition fire-count sanity;
* **client** — cache occupancy ≤ capacity, cache key/entry integrity,
  one-search-in-flight-per-host, and message conservation (every peer
  SEARCH terminates as a reply, a listen-window timeout, or an
  MSS fallback);
* **server** — replies never carry expiries in the past, retrieve times
  from the future, or overlapping membership deltas;
* **NDP** — neighbour-table symmetry within the beacon staleness bound
  and no beacons from the future;
* **TCG** — membership symmetry, irreflexivity, and equality with the
  WADM/ASM thresholds that define it, in both directions (no member
  outside them, no located pair inside them left out);
* **power** — per-host and per-purpose ledgers non-negative and monotone
  non-decreasing over time (energy is only ever spent);
* **metrics** — outcome counters sum to the request count.

Violations raise (or, in ``collect`` mode, record) a structured
:class:`InvariantViolation` carrying the simulated time, the offending
host and the run's master seed, so any report is a replayable repro
recipe.  Runs without a monitor take none of these branches and stay
bit-identical to the unmonitored simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import RequestOutcome
from repro.net.health import CLOSED, LEGAL_TRANSITIONS, OPEN

__all__ = [
    "InvariantMonitor",
    "InvariantViolation",
    "MonitorReport",
    "SEARCH_OUTCOMES",
]

#: The only ways a peer search is allowed to terminate (Section III):
#: a usable reply, an expired listen window, or a failed retrieve that
#: falls back to the MSS.
SEARCH_OUTCOMES: Tuple[str, ...] = ("reply", "timeout", "fallback")

#: Slack for floating-point comparisons on simulated clocks.
_TIME_EPS = 1e-9


class InvariantViolation(AssertionError):
    """A machine-checked protocol invariant failed.

    Carries enough structure to reproduce the failure: the short
    ``invariant`` name, the simulated time, the offending host (when the
    invariant is per-host) and the run's master ``seed`` — replaying the
    same :class:`~repro.core.config.SimulationConfig` with that seed
    deterministically reaches the same state.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        sim_time: float = 0.0,
        host: Optional[int] = None,
        seed: Optional[int] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.invariant = invariant
        self.sim_time = sim_time
        self.host = host
        self.seed = seed
        self.details: Dict[str, Any] = dict(details or {})
        context = f"[{invariant}] t={sim_time:.6f}"
        if host is not None:
            context += f" host={host}"
        if seed is not None:
            context += f" seed={seed}"
        super().__init__(f"{context}: {message}")


@dataclass
class MonitorReport:
    """Summary of one monitored run: work done and violations found."""

    checks_run: int
    violations: List[InvariantViolation] = field(default_factory=list)
    searches_opened: int = 0
    searches_closed: int = 0
    search_outcomes: Dict[str, int] = field(default_factory=dict)
    # Failure-aware retrieve accounting (zero when the layer is off).
    hedges: int = 0
    hedge_wins: int = 0

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations

    def summary(self) -> str:
        """One human-readable line (used by ``repro run --check``)."""
        outcomes = "  ".join(
            f"{name}={count}" for name, count in sorted(self.search_outcomes.items())
        )
        return (
            f"invariants: {self.checks_run} checks, "
            f"{len(self.violations)} violations; "
            f"searches {self.searches_opened} opened / "
            f"{self.searches_closed} closed"
            + (f" ({outcomes})" if outcomes else "")
        )


class InvariantMonitor:
    """A pluggable runtime invariant checker (see the module docstring).

    ``mode="raise"`` (the default) raises the first
    :class:`InvariantViolation` straight out of the simulation;
    ``mode="collect"`` records every violation and keeps running, which
    suits sweep-wide audits.  ``audit_interval`` is the simulated-seconds
    period of the global audit (NDP symmetry, TCG consistency, power
    conservation, heap bookkeeping); the cheap per-transition hooks run
    on every event regardless.
    """

    def __init__(self, mode: str = "raise", audit_interval: float = 5.0) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"mode must be 'raise' or 'collect', got {mode!r}")
        if not (0 < audit_interval < math.inf):  # NaN fails every comparison
            raise ValueError(
                f"audit_interval must be positive and finite, got {audit_interval}"
            )
        self.mode = mode
        self.audit_interval = float(audit_interval)
        self.seed: Optional[int] = None
        self.config: Any = None
        # Checks other than the two kernel hooks, which count themselves in
        # _scheduled / _stepped (see checks_run).
        self._checks = 0
        self.violations: List[InvariantViolation] = []
        # Search conservation bookkeeping.
        self.searches_opened = 0
        self.searches_closed = 0
        self.search_outcomes: Dict[str, int] = {o: 0 for o in SEARCH_OUTCOMES}
        self._open_searches: Dict[int, Tuple[int, int]] = {}  # host -> sid
        # Failure-aware retrieve bookkeeping: last seen breaker state per
        # (host, peer) pair, plus hedge conservation counters.
        self._breaker_states: Dict[Tuple[int, int], str] = {}
        self.hedges = 0
        self.hedge_wins = 0
        # Kernel heap bookkeeping.
        self._scheduled = 0
        self._stepped = 0
        # Time of the last popped event: the kernel's clock while that event
        # is processed, and the time of hooks that are not handed one.
        self._now = math.nan
        # Power conservation: last audited per-purpose totals.
        self._last_power: Optional[Dict[str, float]] = None

    @property
    def checks_run(self) -> int:
        """Invariant checks performed so far, kernel pushes and pops included."""
        return self._checks + self._scheduled + self._stepped

    # -- plumbing ---------------------------------------------------------------

    def bind(self, config: Any) -> None:
        """Attach the run's config so violations carry the replay seed."""
        self.config = config
        self.seed = config.seed

    def violation(
        self,
        invariant: str,
        message: str,
        sim_time: float = 0.0,
        host: Optional[int] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Raise (or record, in ``collect`` mode) one violation."""
        error = InvariantViolation(
            invariant,
            message,
            sim_time=sim_time,
            host=host,
            seed=self.seed,
            details=details,
        )
        if self.mode == "raise":
            raise error
        self.violations.append(error)

    def report(self) -> MonitorReport:
        """The run's summary: checks performed and violations found."""
        return MonitorReport(
            checks_run=self.checks_run,
            violations=list(self.violations),
            searches_opened=self.searches_opened,
            searches_closed=self.searches_closed,
            search_outcomes=dict(self.search_outcomes),
            hedges=self.hedges,
            hedge_wins=self.hedge_wins,
        )

    # -- kernel hooks -----------------------------------------------------------

    def on_schedule(self, env: Any, when: float) -> None:
        """Called on every heap push: no event may land in the past, and the
        time must be a Python number (the kernel sets its clock to it, so a
        numpy scalar would spread to every event scheduled from that tick)."""
        self._scheduled += 1
        now = env.now
        if when < now - _TIME_EPS:
            self.violation(
                "kernel-schedule-in-past",
                f"event scheduled at {when} while now={now}",
                sim_time=now,
                details={"when": when},
            )
        # Nearly every time is a Python float: the exact type test settles
        # those before the costlier isinstance against numpy's scalar base.
        if type(when) is not float and isinstance(when, np.generic):
            self.violation(
                "kernel-clock-numpy-scalar",
                f"event scheduled at a numpy {type(when).__name__}, not a Python number",
                sim_time=now,
                details={"when": when, "type": type(when).__name__},
            )

    def on_step(self, env: Any, when: float) -> None:
        """Called on every heap pop: the clock must never run backwards."""
        self._stepped += 1
        self._now = when
        if when < env.now - _TIME_EPS:
            self.violation(
                "kernel-time-monotonicity",
                f"popped event at {when} while now={env.now}",
                sim_time=env.now,
                details={"when": when},
            )

    def on_condition_fire(self, condition: Any) -> None:
        """AnyOf bookkeeping: fired count bounded by member count."""
        self._checks += 1
        if condition._fired_count > len(condition.events):
            self.violation(
                "kernel-condition-overcount",
                f"condition counted {condition._fired_count} fires "
                f"over {len(condition.events)} events",
                sim_time=condition.env.now,
            )

    # -- client hooks -----------------------------------------------------------

    def on_search_open(self, host: int, sid: Any, now: float) -> None:
        """A peer search started; a host runs at most one at a time."""
        self._checks += 1
        self.searches_opened += 1
        if host in self._open_searches:
            self.violation(
                "search-concurrency",
                f"host opened search {sid} while {self._open_searches[host]} "
                "is still in flight",
                sim_time=now,
                host=host,
            )
        self._open_searches[host] = sid

    def on_search_close(self, host: int, sid: Any, outcome: str, now: float) -> None:
        """A peer search ended; it must match the open one and be one of
        the three legal terminations (reply / timeout / MSS fallback)."""
        self._checks += 1
        self.searches_closed += 1
        if outcome not in self.search_outcomes:
            self.violation(
                "search-unknown-outcome",
                f"search {sid} closed with unknown outcome {outcome!r}",
                sim_time=now,
                host=host,
            )
        else:
            self.search_outcomes[outcome] += 1
        open_sid = self._open_searches.pop(host, None)
        if open_sid != sid:
            self.violation(
                "search-conservation",
                f"search {sid} closed but {open_sid} was open",
                sim_time=now,
                host=host,
            )

    # -- failure-aware retrieve hooks --------------------------------------------

    def on_retrieve_attempt(
        self, host: int, peer: int, breaker_state: str, now: float
    ) -> None:
        """A retrieve was sent; the peer's breaker must not be open."""
        self._checks += 1
        if breaker_state == OPEN:
            self.violation(
                "breaker-attempt-while-open",
                f"retrieve sent to peer {peer} while its breaker is open",
                sim_time=now,
                host=host,
                details={"peer": peer},
            )

    def on_breaker_transition(
        self, host: int, peer: int, old: str, new: str, now: float
    ) -> None:
        """One breaker edge: legal, and continuous with the last one seen."""
        self._checks += 1
        if (old, new) not in LEGAL_TRANSITIONS:
            self.violation(
                "breaker-illegal-transition",
                f"breaker for peer {peer} moved {old!r} -> {new!r}",
                sim_time=now,
                host=host,
                details={"peer": peer, "old": old, "new": new},
            )
        key = (host, peer)
        last = self._breaker_states.get(key, CLOSED)
        if old != last:
            self.violation(
                "breaker-chain-broken",
                f"breaker for peer {peer} left {old!r} but was last seen "
                f"in {last!r}",
                sim_time=now,
                host=host,
                details={"peer": peer, "old": old, "last": last},
            )
        self._breaker_states[key] = new

    def on_hedge(self, host: int, sid: Any, now: float) -> None:
        """A hedged retrieve went out; it must belong to the open search."""
        self._checks += 1
        self.hedges += 1
        if self._open_searches.get(host) != sid:
            self.violation(
                "hedge-outside-search",
                f"hedge for search {sid} but host's open search is "
                f"{self._open_searches.get(host)}",
                sim_time=now,
                host=host,
            )

    def on_hedge_win(self, host: int, sid: Any, now: float) -> None:
        """The hedged request served the data first."""
        self._checks += 1
        self.hedge_wins += 1

    def check_client_cache(self, host: int, cache: Any, now: float) -> None:
        """Cache occupancy ≤ capacity and key/entry integrity."""
        self._checks += 1
        if len(cache) > cache.capacity:
            self.violation(
                "cache-capacity",
                f"cache holds {len(cache)} entries over capacity "
                f"{cache.capacity}",
                sim_time=now,
                host=host,
                details={"occupancy": len(cache), "capacity": cache.capacity},
            )
        for item, entry in cache.pairs():
            if entry is None or entry.item != item:
                self.violation(
                    "cache-entry-integrity",
                    f"cache key {item} maps to entry "
                    f"{None if entry is None else entry.item}",
                    sim_time=now,
                    host=host,
                )

    # -- server hooks -----------------------------------------------------------

    def check_server_reply(
        self,
        client: int,
        expiry: float,
        retrieve_time: float,
        added: Any,
        removed: Any,
        now: float,
    ) -> None:
        """MSS replies must be internally consistent with the clock."""
        self._checks += 1
        if expiry < now - _TIME_EPS:
            self.violation(
                "server-expiry-in-past",
                f"reply TTL already expired ({expiry} < now={now})",
                sim_time=now,
                host=client,
            )
        if retrieve_time > now + _TIME_EPS:
            self.violation(
                "server-retrieve-from-future",
                f"reply retrieve_time {retrieve_time} is after now={now}",
                sim_time=now,
                host=client,
            )
        if not added.isdisjoint(removed):
            self.violation(
                "membership-delta-overlap",
                f"clients {sorted(added & removed)} both added and removed",
                sim_time=now,
                host=client,
            )

    # -- NDP hooks --------------------------------------------------------------

    def check_ndp(self, ndp: Any, now: float) -> None:
        """Neighbour-table symmetry within the beacon staleness bound.

        Beacon reception is symmetric (shared ``connected`` mask, symmetric
        range), so a fresh one-sided link or a cross-pair skew beyond the
        liveness horizon means the table drifted from the radio model.
        """
        self._checks += 1
        table = ndp._last_heard
        horizon = ndp.liveness_horizon
        # One pass accepts a table that every rule below accepts: nothing
        # after now, and no pair apart by more than a finite horizon.  A
        # pair heard on one side only is apart by inf and falls through to
        # the rules; a pair heard on neither side is NaN and is no skew.
        if horizon < math.inf:
            with np.errstate(invalid="ignore"):
                if table.max() <= now + _TIME_EPS and not (
                    np.abs(table - table.T) > horizon + _TIME_EPS
                ).any():
                    return
        if np.any(table > now + _TIME_EPS):
            self.violation(
                "ndp-beacon-from-future",
                "neighbour table records a beacon after the current time",
                sim_time=now,
            )
        finite = np.isfinite(table)
        both = finite & finite.T
        if both.any():
            # Subtract only the finite pairs: the full-matrix difference
            # would evaluate inf - inf at one-sided entries and warn.
            skew = np.abs(table[both] - table.T[both])
            if np.any(skew > horizon + _TIME_EPS):
                self.violation(
                    "ndp-symmetry",
                    f"neighbour-table skew {float(skew.max())} exceeds the "
                    f"staleness bound {horizon}",
                    sim_time=now,
                )
        one_sided = finite & ~finite.T
        if one_sided.any():
            fresh = (now - table) <= horizon
            bad = one_sided & fresh
            if bad.any():
                i, j = (int(x) for x in np.argwhere(bad)[0])
                self.violation(
                    "ndp-symmetry",
                    f"host {i} holds a fresh link to {j} that {j} has no "
                    "record of",
                    sim_time=now,
                    host=i,
                )

    # -- TCG hooks --------------------------------------------------------------

    def check_tcg_row(
        self, tcg: Any, client: int, now: Optional[float] = None
    ) -> None:
        """One client's TCG row: symmetric, irreflexive, and exactly the
        located pairs that meet both thresholds.

        ``now`` defaults to the time of the kernel's last popped event (NaN
        when no kernel is attached).  The row is accepted when it equals its
        column and lists exactly the other clients within Δ whose
        similarity is at least δ.  That test accepts nothing the rules of
        :meth:`_diagnose_tcg_row` reject, which run on every other row and
        report what is wrong with it.  It leaves location out: no rule asks
        a member to be located, and every located pair the rules require
        is within Δ, so asking for all pairs within Δ only rejects more.
        """
        self._checks += 1
        if now is None:
            now = self._now
        member = tcg.member
        row = member[client]
        # Equal bytes are equal rows; comparing them costs no numpy reduction.
        if row.tobytes() == member[:, client].tobytes():
            near = tcg.wadm[client] <= tcg.distance_threshold
            dot, sq_norms = tcg._dot[client], tcg._sq_norms
            own = sq_norms[client]
            threshold = tcg.similarity_threshold
            alike = []
            for other in near.nonzero()[0].tolist():
                if other == client:
                    continue
                # TCGManager.similarity_row's IEEE mul, sqrt and div, one pair.
                product = own * sq_norms[other]
                if product > 0.0:
                    similarity = dot.get(other, 0.0) / math.sqrt(product)
                else:
                    similarity = 0.0
                if similarity >= threshold:
                    alike.append(other)
            if alike == row.nonzero()[0].tolist():
                return
        self._diagnose_tcg_row(tcg, client, now)

    def _diagnose_tcg_row(self, tcg: Any, client: int, now: float) -> None:
        """The TCG rules one by one, over whole rows: each broken rule is one
        violation."""
        row = tcg.member[client]
        if row[client]:
            self.violation(
                "tcg-self-membership",
                "client is a member of its own TCG row",
                sim_time=now,
                host=client,
            )
        if not np.array_equal(row, tcg.member[:, client]):
            self.violation(
                "tcg-asymmetry",
                "membership row and column disagree",
                sim_time=now,
                host=client,
            )
        row = row.copy()
        row[client] = False  # self-membership is reported above, once
        distances = tcg.wadm[client]
        near = distances <= tcg.distance_threshold
        # Similarities matter only for the members and for located pairs
        # inside Δ, which a stale cached half could have left out of the row.
        candidates = near & tcg._has_location & tcg._has_location[client]
        candidates[client] = False
        if not (row.any() or candidates.any()):
            return
        similarities = tcg.similarity_row(client)
        alike = similarities >= tcg.similarity_threshold
        if np.any(row & ~near):
            self.violation(
                "tcg-distance-threshold",
                f"member at weighted distance {float(distances[row].max())} "
                f"over Δ={tcg.distance_threshold}",
                sim_time=now,
                host=client,
            )
        if np.any(row & ~alike):
            self.violation(
                "tcg-similarity-threshold",
                f"member at similarity {float(similarities[row].min())} "
                f"under δ={tcg.similarity_threshold}",
                sim_time=now,
                host=client,
            )
        missing = np.nonzero(candidates & alike & ~row)[0]
        if missing.size:
            self.violation(
                "tcg-missing-member",
                f"clients {missing.tolist()} meet Δ={tcg.distance_threshold} and "
                f"δ={tcg.similarity_threshold} but are not members",
                sim_time=now,
                host=client,
            )

    # -- global audit ------------------------------------------------------------

    def audit(self, simulation: Any) -> None:
        """Periodic whole-system sweep over every subsystem's invariants."""
        env = simulation.env
        now = env.now
        self._checks += 1
        # Kernel queue bookkeeping: pushes − pops == pending events.
        pending = self._scheduled - self._stepped
        if pending != env.pending_events:
            self.violation(
                "kernel-heap-bookkeeping",
                f"{pending} events outstanding but queue holds "
                f"{env.pending_events}",
                sim_time=now,
            )
        for client in simulation.clients:
            self.check_client_cache(client.index, client.cache, now)
            if bool(simulation.network.connected[client.index]) != client.connected:
                self.violation(
                    "connectivity-desync",
                    "host and radio disagree about connectivity",
                    sim_time=now,
                    host=client.index,
                )
        for host, sid in self._open_searches.items():
            if sid not in simulation.clients[host]._searches:
                self.violation(
                    "search-bookkeeping",
                    f"search {sid} is open but the host lost its state",
                    sim_time=now,
                    host=host,
                )
        if simulation.ndp is not None:
            self.check_ndp(simulation.ndp, now)
        if simulation.tcg is not None:
            for client in range(simulation.tcg.n_clients):
                self.check_tcg_row(simulation.tcg, client, now)
        self._audit_power(simulation.ledger, now)
        self._audit_metrics(simulation.metrics, now)

    def _audit_power(self, ledger: Any, now: float) -> None:
        """Power non-negativity and conservation (totals never shrink)."""
        self._checks += 1
        per_host = ledger.per_host_totals()
        if np.any(per_host < 0.0):
            self.violation(
                "power-negative",
                "a host's accumulated power consumption is negative",
                sim_time=now,
                host=int(np.argmin(per_host)),
            )
        totals = ledger.by_purpose()
        previous = self._last_power or {}
        for purpose, total in totals.items():
            if total < previous.get(purpose, 0.0) - _TIME_EPS:
                self.violation(
                    "power-ledger-regression",
                    f"{purpose} power total shrank from "
                    f"{previous.get(purpose, 0.0)} to {total}",
                    sim_time=now,
                )
        self._last_power = totals

    def _audit_metrics(self, metrics: Any, now: float) -> None:
        """Outcome counters must sum to the request count."""
        self._checks += 1
        total = sum(metrics.outcomes.values())
        if total != metrics.requests:
            self.violation(
                "metrics-conservation",
                f"outcome counts sum to {total} but {metrics.requests} "
                "requests were recorded",
                sim_time=now,
            )
        if metrics.global_hits_tcg > metrics.outcomes[RequestOutcome.GLOBAL_HIT]:
            self.violation(
                "metrics-tcg-overcount",
                "more TCG global hits than global hits",
                sim_time=now,
            )

    def finalize(self, simulation: Any) -> None:
        """End-of-run audit plus message-conservation accounting."""
        self.audit(simulation)
        self._checks += 1
        in_flight = len(self._open_searches)
        if self.searches_opened != self.searches_closed + in_flight:
            self.violation(
                "search-conservation",
                f"{self.searches_opened} searches opened but "
                f"{self.searches_closed} closed with {in_flight} in flight",
                sim_time=simulation.env.now,
            )
        if sum(self.search_outcomes.values()) != self.searches_closed:
            self.violation(
                "search-conservation",
                "closed searches and recorded outcomes disagree",
                sim_time=simulation.env.now,
            )
        self._checks += 1
        if self.hedge_wins > self.hedges:
            self.violation(
                "hedge-conservation",
                f"{self.hedge_wins} hedge wins but only {self.hedges} "
                "hedges were sent",
                sim_time=simulation.env.now,
            )
