"""The mobile host (MH) process.

One :class:`MobileHost` per client runs the whole client side of the paper:

* the request loop (exponential think time, Zipf accesses) of Section V-B,
* the COCA search protocol of Section III — local cache, bounded-hop
  broadcast search with adaptive timeout, first-reply target selection,
  retrieve, MSS fallback,
* GroCoCa's cache signature scheme (filtering, piggybacked updates,
  SigRequest/SigReply, OutstandSigList) of Section IV-D,
* cooperative cache admission control and replacement of Section IV-E,
* TTL consistency with MSS validation of Section IV-F,
* the disconnection/reconnection cycle of Sections IV-D.5 and V-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cache import CacheEntry, LRUCache
from repro.core.coca import AdaptiveTimeout, initial_timeout
from repro.core.config import SimulationConfig
from repro.core.metrics import (
    COUNTED_EVENTS,
    PROTOCOL_EVENTS,
    Metrics,
    RequestOutcome,
)
from repro.core.server import MobileSupportStation
from repro.core.signatures_proto import MembershipActions, SignatureAgent
from repro.data.workload import AccessPattern
from repro.net.channel import ServerChannel
from repro.net.health import PeerHealthTracker
from repro.net.message import Message, MessageKind, MessageSizes
from repro.net.ndp import NeighborDiscovery
from repro.net.p2p import P2PNetwork
from repro.policies.factory import build_admission, build_replacement
from repro.sim.kernel import Environment, Event
from repro.sim.random import uniform
from repro.signatures.bloom import SignatureScheme

__all__ = ["MobileHost"]

#: Wire bytes per piggybacked signature bit-position entry.
_POSITION_BYTES = 2
#: Upper bound on remembered peer-access history for explicit updates.
_HISTORY_CAP = 200

# Enum members as module constants: loading one off its class is a
# class-attribute lookup, and the message path does that per message.
_REQUEST = MessageKind.REQUEST
_REPLY = MessageKind.REPLY
_RETRIEVE = MessageKind.RETRIEVE
_DATA = MessageKind.DATA
_SIG_REQUEST = MessageKind.SIG_REQUEST
_SIG_REPLY = MessageKind.SIG_REPLY
_LOCAL_HIT = RequestOutcome.LOCAL_HIT
_GLOBAL_HIT = RequestOutcome.GLOBAL_HIT
_SERVER = RequestOutcome.SERVER
_FAILURE = RequestOutcome.FAILURE

#: The protocol event reporting each circuit-breaker transition, by target state.
_BREAKER_EVENTS = {
    event.breaker: name
    for name, event in PROTOCOL_EVENTS.items()
    if event.breaker is not None
}


class _TraceShapes:
    """The shape code of every event a host records, declared once.

    One attribute per call site; an attribute that depends on a status
    the call site learns at run time holds the codes by that status.
    """

    def __init__(self, tracer) -> None:
        declare = tracer.declare
        self.request = declare("B", "request", ("request", "item"))
        #: By :class:`RequestOutcome` value.
        self.request_end = tuple(
            declare("E", "request", ("recorded", "from_tcg"), outcome.name.lower())
            for outcome in RequestOutcome
        )
        self.local = declare("B", "local", ("item",))
        self.local_miss = declare("E", "local", (), "miss")
        self.local_hit = declare("E", "local", (), "hit")
        self.local_expired = declare("E", "local", (), "expired")
        self.search_bypassed = declare("I", "search-bypassed", ("item", "recorded"))
        self.search = declare("B", "search", ("item", "recorded_open"))
        #: By search outcome.
        self.search_end = {
            outcome: declare("E", "search", ("replies", "recorded"), outcome)
            for outcome in ("reply", "timeout", "fallback")
        }
        self.search_reply = declare("I", "search-reply", ("peer",))
        self.retrieve = declare("B", "retrieve", ("peer",))
        self.retrieve_ok = declare("E", "retrieve", ("peer", "attempts"), "ok")
        self.retrieve_failed = declare("E", "retrieve", ("attempts",), "failed")
        self.mss = declare("B", "mss", ("item",))
        self.mss_ok = declare("E", "mss", ("attempts",), "ok")
        self.mss_failed = declare("E", "mss", (), "failed")
        self.validate = declare("B", "validate", ("item",))
        self.validate_refreshed = declare(
            "E", "validate", ("attempts", "recorded"), "refreshed"
        )
        self.validate_valid = declare("E", "validate", ("attempts", "recorded"), "valid")
        self.validate_failed = declare("E", "validate", (), "failed")
        self.cache_evict = declare("I", "cache-evict", ("item",))
        self.cache_admit = declare("I", "cache-admit", ("item",))
        self.disconnect = declare("I", "disconnect", ("duration",))
        self.reconnect = declare("I", "reconnect")
        self.fault_crash = declare("I", "fault-crash")
        self.fault_recover = declare("I", "fault-recover")
        #: By protocol event name; ``recorded`` follows the event's keys.
        self.marks = {
            name: declare("I", name, (*event.keys, "recorded"))
            for name, event in PROTOCOL_EVENTS.items()
        }


@dataclass
class _SearchState:
    """Book-keeping for one in-flight peer search."""

    item: int
    started: float
    reply_event: object
    data_event: object = None
    replies: List[dict] = field(default_factory=list)
    finished: bool = False
    span: int = -1  # the search's tracer span (-1 when untraced)


class MobileHost:
    """One mobile client."""

    def __init__(
        self,
        index: int,
        env: Environment,
        config: SimulationConfig,
        network: P2PNetwork,
        channel: ServerChannel,
        server: MobileSupportStation,
        pattern: AccessPattern,
        metrics: Metrics,
        rng: np.random.Generator,
        sizes: MessageSizes,
        signature_scheme: Optional[SignatureScheme] = None,
        ndp: Optional[NeighborDiscovery] = None,
        monitor=None,
        tracer=None,
        health: Optional[PeerHealthTracker] = None,
        jitter_rng: Optional[np.random.Generator] = None,
        admission_rng: Optional[np.random.Generator] = None,
    ):
        self.index = index
        self.env = env
        self.config = config
        self.network = network
        self.channel = channel
        self.server = server
        #: This host's Zipf accesses over its group's window (Section V-B).
        self.pattern = pattern
        self.metrics = metrics
        self.rng = rng
        self.sizes = sizes
        self.ndp = ndp
        #: Optional invariant oracle (duck-typed; see repro.check.monitor).
        self._monitor = monitor
        #: Optional span tracer (see repro.obs.tracer); every call site is
        #: behind an ``is None`` guard so untraced runs are bit-identical.
        self._tracer = tracer
        if tracer is not None:
            self._shapes = _TraceShapes(tracer)
        #: Optional failure-aware retrieve layer (see repro.net.health);
        #: ``None`` keeps the paper's arrival-order retrieve path, branch
        #: for branch, so health-off runs replay the goldens exactly.
        self.health = health
        #: Optional shared "retry-jitter" stream; ``None`` (retry_jitter=0)
        #: keeps every backoff delay exactly as recorded.
        self._jitter_rng = jitter_rng
        self._req_seq = 0
        self._req_span = -1
        self.cache = LRUCache(config.cache_size)
        self.connected = True
        self.requests_completed = 0
        self.disconnections = 0
        self.crashes = 0
        self.last_server_contact = 0.0
        self.timeout = AdaptiveTimeout(
            initial_timeout(
                config.hop_dist,
                sizes.request,
                sizes.reply,
                config.bw_p2p,
                config.congestion_phi,
            ),
            config.deviation_phi,
        )

        scheme = config.scheme
        if scheme.group_based:
            if signature_scheme is None:
                raise ValueError("GroCoCa requires a signature scheme")
            self.signatures: Optional[SignatureAgent] = SignatureAgent(
                signature_scheme,
                config.counter_bits,
                compression_enabled=config.signature_compression,
                recollect_batch=config.recollect_batch,
            )
        else:
            self.signatures = None
        # Admission and replacement resolve through the policy tables;
        # with no explicit *_policy override the scheme's default row
        # (policies.factory.SCHEME_DEFAULTS) applies.
        self.admission = build_admission(config, rng=admission_rng)
        self.replacement = build_replacement(
            config,
            self.cache,
            signature_scheme=signature_scheme,
            peer_signature=(
                self.signatures.peer if self.signatures is not None else None
            ),
        )
        self._observe_requests = self.replacement.observes_requests

        self._search_seq = 0
        self._searches: Dict[Tuple[int, int], _SearchState] = {}
        self._seen_search: Dict[int, int] = {}  # origin -> latest seq seen
        self._peer_history: List[int] = []

        network.register_handler(index, self.on_message)
        env.process(self.run())
        if scheme.group_based and config.explicit_update_period > 0:
            env.process(self._explicit_update_loop())

    # ------------------------------------------------------------------ main loop

    def run(self):
        """Think, access, maybe disconnect — forever."""
        config = self.config
        pattern = self.pattern
        while True:
            yield self.env.timeout(self.rng.exponential(config.think_time_mean))
            item = pattern.next_item()
            yield from self.access_item(item)
            self.requests_completed += 1
            if config.p_disc > 0 and self.rng.random() < config.p_disc:
                yield from self._disconnect_cycle()

    def position(self) -> np.ndarray:
        return self.network.field.position_of(self.index, self.env.now)

    # ------------------------------------------------------------------- accessing

    def access_item(self, item: int):
        """Resolve one query: local cache, peers, then the MSS."""
        start = self.env.now
        if self._observe_requests:
            self.replacement.note_request(item)
        tracer = self._tracer
        if tracer is not None:
            shapes = self._shapes
            self._req_seq += 1
            self._req_span = tracer.open(
                shapes.request, self.index, None, self._req_seq, item
            )
        if not self.connected:
            # Crash-stop outage: the request cannot leave the host.
            self._record_failure(start)
            return
        entry = self.cache.get(item)
        if tracer is not None:
            local = tracer.open(shapes.local, self.index, self._req_span, item)
            if entry is None:
                tracer.close(local, shapes.local_miss)
            elif entry.is_valid(self.env.now):
                tracer.close(local, shapes.local_hit)
            else:
                tracer.close(local, shapes.local_expired)
        if entry is not None:
            if entry.is_valid(self.env.now):
                self._note_local_access(item, entry)
                self._record_outcome(_LOCAL_HIT, start)
                return
            yield from self._validate_with_server(item, entry, start)
            return

        if self.config.scheme.cooperative and self.connected:
            result = yield from self._search_peers(item)
            if result is not None:
                reply, from_tcg, hops = result
                self._admit_from_peer(reply, from_tcg, hops)
                self._remember_peer_access(item)
                self._record_outcome(_GLOBAL_HIT, start, from_tcg=from_tcg)
                return

        if not self.connected:
            # Crashed while searching: the MSS is out of reach too.
            self._record_failure(start)
            return
        yield from self._fetch_from_server(item, start)

    def _record_outcome(
        self, outcome: RequestOutcome, start: float, from_tcg: bool = False
    ) -> None:
        """Count the request's outcome and close its span (when traced).

        The span's ``recorded`` flag snapshots ``metrics.recording`` at
        this exact moment — the same gate ``record_request`` applies — so
        the trace contract can reconcile span counts with the Results
        counters across the warm-up boundary.
        """
        self.metrics.record_request(
            self.index,
            outcome,
            self.env.now - start,
            from_tcg=from_tcg,
        )
        if self._tracer is not None:
            self._tracer.close(
                self._req_span,
                self._shapes.request_end[outcome.value],
                self.metrics.recording,
                from_tcg,
            )
            self._req_span = -1

    def _record_failure(self, start: float) -> None:
        self._record_outcome(_FAILURE, start)

    def _mark(self, event: str, parent: int = -1, *values: object) -> None:
        """Report one protocol event — the only way a counted one is.

        Counts it when :data:`COUNTED_EVENTS` lists it and, in a traced
        run, emits the instant under ``parent`` with ``values`` for the
        event's :data:`PROTOCOL_EVENTS` keys and then the ``recorded`` gate
        the count just applied (what lets the trace contract reconcile).
        """
        if event in COUNTED_EVENTS:
            self.metrics.count(event)
        if self._tracer is not None:
            self._tracer.point(
                self._shapes.marks[event],
                self.index,
                parent if parent >= 0 else None,
                *values,
                self.metrics.recording,
            )

    def _note_local_access(self, item: int, entry: CacheEntry) -> None:
        self.cache.touch(item, self.env.now)
        self.replacement.note_access(entry, self.env.now)

    def _remember_peer_access(self, item: int) -> None:
        if self.signatures is None:
            return
        if len(self._peer_history) < _HISTORY_CAP:
            self._peer_history.append(item)

    # --------------------------------------------------------------- peer searching

    def _search_peers(self, item: int):
        """COCA search; returns (reply dict, from_tcg, hops) or None."""
        signatures = self.signatures
        if (
            signatures is not None
            and self.config.signature_filtering
            and not signatures.likely_cached_by_members(item)
        ):
            self.metrics.record_search(bypassed=True)
            if self._tracer is not None:
                self._tracer.point(
                    self._shapes.search_bypassed,
                    self.index,
                    self._req_span,
                    item,
                    self.metrics.recording,
                )
            return None
        self.metrics.record_search(bypassed=False)

        self._search_seq += 1
        sid = (self.index, self._search_seq)
        update: Optional[Tuple[List[int], List[int]]] = None
        size = self.sizes.request
        if signatures is not None:
            update = signatures.take_update()
            size += (len(update[0]) + len(update[1])) * _POSITION_BYTES
        state = _SearchState(
            item=item, started=self.env.now, reply_event=self.env.event()
        )
        if self._tracer is not None:
            # ``recorded_open`` mirrors record_search's gate; the close-side
            # ``recorded`` flag is snapshotted separately in _finish_search.
            state.span = self._tracer.open(
                self._shapes.search,
                self.index,
                self._req_span,
                item,
                self.metrics.recording,
            )
        self._searches[sid] = state
        if self._monitor is not None:
            self._monitor.on_search_open(self.index, sid, self.env.now)
        self._flood(sid, item, update, size)

        reply = None
        tau = self.timeout.current()
        attempts = 1 + self.config.search_retry_limit
        for attempt in range(attempts):
            fired = yield self.env.any_of([state.reply_event, self.env.timeout(tau)])
            if state.reply_event in fired:
                reply = state.reply_event.value
                break
            if attempt + 1 >= attempts:
                break
            # Re-flood under the same search id: peers that heard the first
            # copy suppress the duplicate via their seen-sequence table, so
            # a retransmission can never double-count a hit; only peers the
            # loss process robbed get a fresh chance to answer.  The
            # piggybacked signature update is not repeated (members that
            # received it already applied it).
            self._mark("search-retry", state.span, attempt + 1)
            self._flood(sid, item, None, self.sizes.request)
            tau *= 2.0  # exponential backoff of the listen window
        if reply is None:
            self._finish_search(sid, "timeout")
            self.metrics.record_fallback()
            return None
        self.timeout.observe(self.env.now - state.started)
        outcome = yield from self._retrieve_with_fallback(sid, state, reply)
        self._finish_search(sid, "reply" if outcome is not None else "fallback")
        if outcome is None:
            self.metrics.record_fallback()
            return None
        data, serving_peer = outcome
        from_tcg = signatures is not None and serving_peer in signatures.members
        hops = 1
        for r in state.replies:
            if r["peer"] == serving_peer:
                hops = len(r["path"]) - 1
                break
        return data, from_tcg, hops

    def _flood(self, sid, item: int, update, size: int) -> None:
        """Broadcast the originator's REQUEST (first flood or re-flood)."""
        message = Message(
            kind=_REQUEST,
            src=self.index,
            dst=None,
            size=size,
            payload={"search": sid, "item": item, "origin": self.index, "update": update},
            created_at=self.env.now,
            hops_left=self.config.hop_dist - 1,
            path=[self.index],
        )
        sig_bytes = size - self.sizes.request
        self._soon(self.network.broadcast, self.index, message, "data", sig_bytes)

    def _select_replier(self, state: _SearchState, tried: set) -> Optional[dict]:
        """The next retrieve target among the untried repliers.

        Without the health layer this is the paper's arrival-order pick;
        with it, candidates are ranked by the configured scoring policy
        after circuit-broken peers are filtered out (``None`` when every
        untried replier is broken — the caller falls back to the MSS
        instead of timing out against a known-dead peer).
        """
        candidates = [r for r in state.replies if r["peer"] not in tried]
        if not candidates:
            return None
        if self.health is None:
            return candidates[0]
        return self.health.select(candidates, self.env.now)

    def _retrieve_with_fallback(self, sid, state: _SearchState, reply: dict):
        """Retrieve from the chosen peer, falling over to other repliers.

        Bounded by ``retrieve_retry_limit``: a failed retrieve (lost
        message, peer moved away or crashed) backs off exponentially and
        targets the next untried reply — arrival order, or the scoring
        policy's pick when the health layer is active.  With a
        ``retrieve_deadline`` the per-query budget is checked before every
        retry so a string of slow failures cannot stall the request loop.
        When no untried target is left the caller falls back to the MSS.
        Returns ``(data payload, serving peer)`` or ``None``.
        """
        attempts = 1 + self.config.retrieve_retry_limit
        backoff = self.config.retry_backoff_base
        deadline = self.config.retrieve_deadline
        health = self.health
        tried = set()
        if health is not None:
            chosen = self._select_replier(state, tried)
            if chosen is None:
                return None  # every replier circuit-broken: straight to MSS
            reply = chosen
        span = -1
        if self._tracer is not None:
            span = self._tracer.open(
                self._shapes.retrieve, self.index, state.span, reply["peer"]
            )
        for attempt in range(attempts):
            tried.add(reply["peer"])
            data = yield from self._retrieve(sid, state, reply, tried, span)
            if data is not None:
                serving = (
                    data.get("peer", reply["peer"])
                    if health is not None
                    else reply["peer"]
                )
                if span >= 0:
                    self._tracer.close(
                        span, self._shapes.retrieve_ok, serving, attempt + 1
                    )
                return data, serving
            if attempt + 1 >= attempts:
                break
            if (
                health is not None
                and deadline > 0.0
                and self.env.now - state.started >= deadline
            ):
                health.note("budget_exhausted")
                self._mark("budget-exhausted", span)
                break
            fallback = self._select_replier(state, tried)
            if fallback is None:
                break
            self._mark("retrieve-retry", span, fallback["peer"])
            yield self.env.timeout(self._backoff_delay(backoff))
            backoff *= 2.0
            reply = fallback
        if span >= 0:
            self._tracer.close(span, self._shapes.retrieve_failed, attempt + 1)
        return None

    def _retrieve(self, sid, state: _SearchState, reply: dict, tried: set, span: int = -1):
        """Send retrieve to the target peer and await the data item."""
        state.data_event = self.env.event()
        path = reply["path"]  # origin ... peer
        if len(path) < 2:
            return None
        health = self.health
        if health is not None:
            self._note_attempt(reply["peer"], span)
        sent = yield self._send_retrieve(sid, state, reply)
        if not sent:
            if health is not None:
                self._note_retrieve_failure(reply["peer"], span)
            return None
        hops = len(path) - 1
        guard = 4.0 * hops * self.network.tx_time(self.sizes.data_message())
        guard += self.timeout.current()
        if health is None:
            fired = yield self.env.any_of(
                [state.data_event, self.env.timeout(guard)]
            )
            if state.data_event not in fired:
                return None
            return state.data_event.value
        payload = yield from self._guarded_wait(sid, state, reply, tried, span, guard)
        return payload

    def _send_retrieve(self, sid, state: _SearchState, reply: dict) -> Event:
        """Route the RETRIEVE to ``reply``'s peer; the event carries the
        delivered flag when the route resolves."""
        path = reply["path"]
        message = Message(
            kind=_RETRIEVE,
            src=self.index,
            dst=reply["peer"],
            size=self.sizes.retrieve,
            payload={"search": sid, "item": state.item, "path": list(path)},
            created_at=self.env.now,
        )
        return self.network.unicast_route(list(path), message)

    # ------------------------------------------------- failure-aware retrieve

    def _guarded_wait(
        self,
        sid,
        state: _SearchState,
        reply: dict,
        tried: set,
        span: int,
        guard: float,
    ):
        """Health-layer DATA wait: crash watch plus an optional hedge.

        Replaces the plain ``any_of([data, timeout])`` wait when the
        health layer is active.  With ``crash_failover`` the wait also
        races the serving peer's down-transition, failing over the moment
        the crash daemon (or a graceful disconnect) takes it off the air
        instead of burning the full data guard.  With ``hedge_quantile``
        a second retrieve goes to the next-best healthy replier once the
        first exceeds that quantile of its EWMA latency; the first DATA
        back wins and the loser is released without a failure penalty.
        """
        env = self.env
        health = self.health
        config = self.config
        peer = reply["peer"]
        sent_times = {peer: env.now}
        hops = {peer: len(reply["path"]) - 1}
        deadline_t = env.now + guard
        watch = None
        if config.crash_failover:
            watch = env.event()
            self.network.watch_down(peer, watch)
        hedge_at = None
        if config.hedge_quantile > 0.0:
            delay = health.hedge_delay(peer, config.hedge_quantile)
            if delay is not None:
                hedge_at = env.now + delay
        hedged = False
        hedge_peer: Optional[int] = None
        try:
            while True:
                if state.data_event.triggered:
                    payload = state.data_event.value
                    serving = payload.get("peer", peer)
                    latency = env.now - sent_times.get(serving, sent_times[peer])
                    self._note_retrieve_success(
                        sid,
                        serving,
                        latency,
                        hops.get(serving, hops[peer]),
                        hedge_peer,
                        span,
                    )
                    for other in sent_times:
                        if other != serving:
                            health.note_abandoned(other)
                    return payload
                if watch is not None and watch.triggered and not hedged:
                    # The serving peer dropped off the air between replying
                    # and serving: fail over right now instead of waiting
                    # out the guard (with a hedge in flight the race keeps
                    # running — the hedge peer can still serve).
                    health.note("fast_failovers")
                    self._mark("fast-failover", span, peer)
                    self._note_retrieve_failure(peer, span)
                    return None
                now = env.now
                remaining = deadline_t - now
                if remaining <= 1e-12:
                    break
                target = deadline_t
                if hedge_at is not None and not hedged:
                    target = min(target, hedge_at)
                waits = [state.data_event, env.timeout(max(0.0, target - now))]
                if watch is not None and not watch.triggered:
                    waits.append(watch)
                yield env.any_of(waits)
                if (
                    hedge_at is not None
                    and not hedged
                    and env.now >= hedge_at - 1e-12
                    and not state.data_event.triggered
                ):
                    hedged = True  # one hedge opportunity per retrieve
                    hedge = self._select_replier(state, tried)
                    if hedge is not None:
                        sent = yield from self._send_hedge(
                            sid, state, hedge, tried, span
                        )
                        if sent:
                            hedge_peer = hedge["peer"]
                            sent_times[hedge_peer] = env.now
                            hops[hedge_peer] = len(hedge["path"]) - 1
            # Guard exhausted with no DATA: every outstanding target failed.
            for target_peer in sent_times:
                self._note_retrieve_failure(target_peer, span)
            return None
        finally:
            if watch is not None:
                self.network.unwatch_down(peer, watch)

    def _send_hedge(
        self, sid, state: _SearchState, reply: dict, tried: set, span: int
    ):
        """Send the hedged second retrieve to the next-best replier."""
        peer = reply["peer"]
        if len(reply["path"]) < 2:
            return False
        tried.add(peer)
        self._note_attempt(peer, span)
        if self._monitor is not None:
            self._monitor.on_hedge(self.index, sid, self.env.now)
        self.health.note("hedges")
        self._mark("retrieve-hedge", span, peer)
        sent = yield self._send_retrieve(sid, state, reply)
        if not sent:
            self._note_retrieve_failure(peer, span)
            return False
        return True

    def _note_attempt(self, peer: int, span: int) -> None:
        """Health bookkeeping for one retrieve send (breaker + monitor)."""
        breaker_state, transitions = self.health.begin_attempt(peer, self.env.now)
        self._note_breaker(peer, transitions, span)
        if self._monitor is not None:
            self._monitor.on_retrieve_attempt(
                self.index, peer, breaker_state, self.env.now
            )

    def _note_retrieve_success(
        self,
        sid,
        serving: int,
        latency: float,
        hops: int,
        hedge_peer: Optional[int],
        span: int,
    ) -> None:
        transitions = self.health.record_success(
            serving, self.env.now, latency, hops
        )
        self._note_breaker(serving, transitions, span)
        if hedge_peer is not None and serving == hedge_peer:
            self.health.note("hedge_wins")
            if self._monitor is not None:
                self._monitor.on_hedge_win(self.index, sid, self.env.now)
            self._mark("hedge-win", span, serving)

    def _note_retrieve_failure(self, peer: int, span: int) -> None:
        transitions = self.health.record_failure(peer, self.env.now)
        self._note_breaker(peer, transitions, span)

    def _note_breaker(self, peer: int, transitions, span: int) -> None:
        """Mirror breaker transitions into monitor, metrics and tracer."""
        for old, new in transitions:
            if self._monitor is not None:
                self._monitor.on_breaker_transition(
                    self.index, peer, old, new, self.env.now
                )
            self._mark(_BREAKER_EVENTS[new], span, peer)

    def _backoff_delay(self, backoff: float) -> float:
        """The next retry delay, jittered when ``retry_jitter`` is set.

        The draw comes from the dedicated ``retry-jitter`` stream, so
        enabling jitter shifts no other component's sequence — and with
        jitter off the stream is never created and the delay is exactly
        the unjittered backoff.
        """
        rng = self._jitter_rng
        if rng is None:
            return backoff
        spread = self.config.retry_jitter
        return backoff * (1.0 + spread * (2.0 * rng.random() - 1.0))

    def _finish_search(self, sid, outcome: str) -> None:
        state = self._searches.pop(sid, None)
        if state is not None:
            state.finished = True
        if self._monitor is not None:
            self._monitor.on_search_close(self.index, sid, outcome, self.env.now)
        if self._tracer is not None and state is not None and state.span >= 0:
            self._tracer.close(
                state.span,
                self._shapes.search_end[outcome],
                len(state.replies),
                self.metrics.recording,
            )

    def _soon(self, send: Callable[..., object], *args: object) -> None:
        """Call ``send(*args)`` in a step of its own at this instant, behind
        whatever is already queued for now; ``send`` reads the host's state
        when it runs, not when it is scheduled (only its arguments are bound
        here).  The kernel calls ``send`` directly, so each one is public: a
        layer tracer books work by public entry points."""
        self.env.call_later(0.0, partial(send, *args))

    # ------------------------------------------------------------ message handling

    def on_message(self, message: Message) -> None:
        """Receive callback; cheap state updates, network work is deferred."""
        kind = message.kind
        if kind is _REQUEST:
            self._on_request(message)
        elif kind is _REPLY:
            self._on_reply(message)
        elif kind is _RETRIEVE:
            self._on_retrieve(message)
        elif kind is _DATA:
            self._on_data(message)
        elif kind is _SIG_REQUEST:
            self._on_sig_request(message)
        elif kind is _SIG_REPLY:
            self._on_sig_reply(message)

    def _on_request(self, message: Message) -> None:
        payload = message.payload
        origin, seq = payload["search"]
        if origin == self.index:
            return
        signatures = self.signatures
        if signatures is not None:
            if payload["update"] is not None and origin in signatures.members:
                signatures.apply_peer_update(*payload["update"])
            if signatures.notice_peer_alive(origin):
                self._soon(self.send_sig_request, origin)
        if self._seen_search.get(origin, -1) >= seq:
            return
        self._seen_search[origin] = seq
        item = payload["item"]
        if self._observe_requests:
            self.replacement.note_remote_request(item)
        entry = self.cache.get(item)
        if entry is not None and entry.is_valid(self.env.now):
            self._soon(self.send_reply, message, entry)
        elif message.hops_left > 0:
            forward = Message(
                kind=_REQUEST,
                src=self.index,
                dst=None,
                size=message.size,
                payload=payload,
                created_at=message.created_at,
                hops_left=message.hops_left - 1,
                path=message.path + [self.index],
            )
            sig_bytes = message.size - self.sizes.request
            self._soon(self.network.broadcast, self.index, forward, "data", sig_bytes)

    def send_reply(self, request: Message, entry: CacheEntry) -> Event:
        """Turn in a REPLY along the reverse of the request's path."""
        route = list(reversed(request.path + [self.index]))
        message = Message(
            kind=_REPLY,
            src=self.index,
            dst=route[-1],
            size=self.sizes.reply,
            payload={
                "search": request.payload["search"],
                "peer": self.index,
                "path": request.path + [self.index],
                "expiry": entry.expiry,
                "retrieve_time": entry.retrieve_time,
                "version": entry.version,
            },
            created_at=self.env.now,
        )
        return self.network.unicast_route(route, message)

    def _on_reply(self, message: Message) -> None:
        sid = message.payload["search"]
        state = self._searches.get(sid)
        if state is None or state.finished:
            return
        state.replies.append(message.payload)
        if self._tracer is not None and state.span >= 0:
            self._tracer.point(
                self._shapes.search_reply,
                self.index,
                state.span,
                message.payload["peer"],
            )
        if not state.reply_event.triggered:
            state.reply_event.succeed(message.payload)

    def _on_retrieve(self, message: Message) -> None:
        self._soon(self.serve_retrieve, message)

    def serve_retrieve(self, message: Message) -> None:
        payload = message.payload
        item = payload["item"]
        entry = self.cache.get(item)
        if entry is None or not entry.is_valid(self.env.now):
            return  # evicted/expired since the reply; requester times out
        path = payload["path"]  # origin ... me
        data = Message(
            kind=_DATA,
            src=self.index,
            dst=path[0],
            size=self.sizes.data_message(),
            payload={
                "search": payload["search"],
                "item": item,
                "expiry": entry.expiry,
                "retrieve_time": entry.retrieve_time,
                "version": entry.version,
                # Serving peer, so a hedged requester can attribute the
                # DATA that won the race (payload-only; size is modelled
                # by ``sizes.data_message()`` and unaffected).
                "peer": self.index,
            },
            created_at=self.env.now,
        )
        requester = path[0]

        def refresh(sent: Event) -> None:
            members = self.signatures.members
            if sent.value and requester in members and item in self.cache:
                # Section IV-E: serving a TCG member refreshes the copy.
                self.cache.touch(item, self.env.now)
                self.replacement.note_access(self.cache.get(item), self.env.now)

        sent = self.network.unicast_route(list(reversed(path)), data)
        if self.signatures is not None:
            sent.add_callback(refresh)

    def _on_data(self, message: Message) -> None:
        sid = message.payload["search"]
        state = self._searches.get(sid)
        if state is None or state.finished or state.data_event is None:
            return
        if not state.data_event.triggered:
            state.data_event.succeed(message.payload)

    # ----------------------------------------------------------- signature traffic

    def send_sig_request(self, peer: int, members: Optional[Set[int]] = None) -> None:
        """Direct (unicast) or membership-scoped broadcast SigRequest."""
        if members is None:
            message = Message(
                kind=_SIG_REQUEST,
                src=self.index,
                dst=peer,
                size=self.sizes.sig_request,
                payload={"from": self.index, "members": None},
                created_at=self.env.now,
            )
            self.network.unicast(self.index, peer, message, purpose="signature")
        else:
            message = Message(
                kind=_SIG_REQUEST,
                src=self.index,
                dst=None,
                size=self.sizes.sig_request
                + len(members) * self.sizes.membership_entry,
                payload={"from": self.index, "members": set(members)},
                created_at=self.env.now,
            )
            self.network.broadcast(self.index, message, purpose="signature")

    def _on_sig_request(self, message: Message) -> None:
        if self.signatures is None:
            return
        payload = message.payload
        members = payload["members"]
        if members is not None and self.index not in members:
            return  # broadcast recollection for somebody else's TCG
        self._soon(self.send_sig_reply, payload["from"])

    def send_sig_reply(self, requester: int) -> None:
        positions, wire_bytes, _compressed = self.signatures.full_signature_payload(
            len(self.cache)
        )
        message = Message(
            kind=_SIG_REPLY,
            src=self.index,
            dst=requester,
            size=self.sizes.sig_reply(wire_bytes),
            payload={"from": self.index, "positions": positions},
            created_at=self.env.now,
        )
        self.network.unicast(self.index, requester, message, purpose="signature")

    def _on_sig_reply(self, message: Message) -> None:
        if self.signatures is None:
            return
        payload = message.payload
        if payload["from"] not in self.signatures.members:
            return  # departed while the reply was in flight
        self.signatures.merge_member_signature(payload["from"], payload["positions"])

    def _apply_membership_changes(self, added: Set[int], removed: Set[int]) -> None:
        if self.signatures is None or (not added and not removed):
            return
        actions = self.signatures.apply_membership_changes(added, removed)
        self._execute_membership_actions(actions)

    def _execute_membership_actions(self, actions: MembershipActions) -> None:
        if actions.recollect and self.signatures.members:
            self._soon(self.send_sig_request, -1, set(self.signatures.members))
        for peer in actions.request_from:
            self._soon(self.send_sig_request, peer)

    # -------------------------------------------------------------- MSS interaction

    def _fetch_from_server(self, item: int, start: float):
        """Cache-miss fallback: pull the item over the shared channels.

        A lost uplink request or downlink reply (fault injection only) is
        retried with exponential backoff up to ``uplink_retry_limit`` times;
        the access fails outright when every attempt is lost.
        """
        backoff = self.config.retry_backoff_base
        span = -1
        if self._tracer is not None:
            span = self._tracer.open(self._shapes.mss, self.index, self._req_span, item)
        for attempt in range(1 + self.config.uplink_retry_limit):
            if attempt:
                self._mark("uplink-retry", span, attempt)
                yield self.env.timeout(self._backoff_delay(backoff))
                backoff *= 2.0
            sent = yield from self.channel.send_uplink(self.sizes.server_request)
            if not sent:
                continue
            reply = self.server.handle_data_request(
                self.index, item, self.position()
            )
            self.last_server_contact = self.env.now
            received = yield from self.channel.send_downlink(
                self.sizes.server_reply(reply.membership_changes)
            )
            if not received:
                continue
            entry = CacheEntry(
                item=item,
                expiry=reply.expiry,
                retrieve_time=reply.retrieve_time,
                version=reply.version,
                singlet_ttl=self.replacement.new_entry_ttl(),
            )
            if span >= 0:
                self._tracer.close(span, self._shapes.mss_ok, attempt + 1)
            self._insert(entry)
            self._apply_membership_changes(reply.added, reply.removed)
            self._record_outcome(_SERVER, start)
            return
        if span >= 0:
            self._tracer.close(span, self._shapes.mss_failed)
        self._record_failure(start)

    def _validate_with_server(self, item: int, entry: CacheEntry, start: float):
        """Section IV-F: consult the MSS about an expired copy."""
        backoff = self.config.retry_backoff_base
        span = -1
        if self._tracer is not None:
            span = self._tracer.open(
                self._shapes.validate, self.index, self._req_span, item
            )
        for attempt in range(1 + self.config.uplink_retry_limit):
            if attempt:
                self._mark("uplink-retry", span, attempt)
                yield self.env.timeout(self._backoff_delay(backoff))
                backoff *= 2.0
            sent = yield from self.channel.send_uplink(self.sizes.validate)
            if not sent:
                continue
            reply = self.server.handle_validation(
                self.index, item, entry.retrieve_time, self.position()
            )
            self.last_server_contact = self.env.now
            if reply.refreshed:
                received = yield from self.channel.send_downlink(
                    self.sizes.server_reply(reply.membership_changes)
                )
            else:
                received = yield from self.channel.send_downlink(
                    self.sizes.validate_ok
                    + reply.membership_changes * self.sizes.membership_entry
                )
            if not received:
                continue
            entry.expiry = reply.expiry
            entry.retrieve_time = reply.retrieve_time
            entry.version = reply.version
            self._note_local_access(item, entry)
            self._apply_membership_changes(reply.added, reply.removed)
            self.metrics.record_validation(refreshed=reply.refreshed)
            if span >= 0:
                self._tracer.close(
                    span,
                    self._shapes.validate_refreshed
                    if reply.refreshed
                    else self._shapes.validate_valid,
                    attempt + 1,
                    self.metrics.recording,
                )
            self._record_outcome(_SERVER if reply.refreshed else _LOCAL_HIT, start)
            return
        if span >= 0:
            self._tracer.close(span, self._shapes.validate_failed)
        self._record_failure(start)

    def _explicit_update_loop(self):
        """Section IV-B: report location and peer-access history when idle."""
        period = self.config.explicit_update_period
        while True:
            yield self.env.timeout(period)
            if not self.connected:
                continue
            if self.env.now - self.last_server_contact < period:
                continue
            history = self._take_history_portion()
            sent = yield from self.channel.send_uplink(
                self.sizes.explicit_update_base + len(history) * 4
            )
            if not sent:
                continue  # lost update; the next period reports fresh history
            added, removed = self.server.handle_explicit_update(
                self.index, self.position(), history
            )
            self.last_server_contact = self.env.now
            received = yield from self.channel.send_downlink(
                self.sizes.validate_ok
                + (len(added) + len(removed)) * self.sizes.membership_entry
            )
            if not received:
                continue  # membership delta lost; resynced on next contact
            self._apply_membership_changes(added, removed)

    def _take_history_portion(self) -> List[int]:
        portion = self.config.explicit_update_portion
        history = self._peer_history
        if not history or portion <= 0:
            self._peer_history = []
            return []
        count = max(1, int(round(len(history) * portion)))
        chosen = list(
            self.rng.choice(len(history), size=min(count, len(history)), replace=False)
        )
        report = [history[i] for i in chosen]
        self._peer_history = []
        return report

    # ------------------------------------------------------------------- admission

    def _admit_from_peer(self, reply: dict, from_tcg: bool, hops: int = 1) -> None:
        """Section IV-E admission control for peer-supplied items."""
        entry = CacheEntry(
            item=reply["item"],
            expiry=reply["expiry"],
            retrieve_time=reply["retrieve_time"],
            version=reply["version"],
            singlet_ttl=self.replacement.new_entry_ttl(),
        )
        if entry.item in self.cache or self.admission.should_cache(
            cache_full=self.cache.is_full, from_tcg_member=from_tcg, hops=hops
        ):
            self._insert(entry)

    def _insert(self, entry: CacheEntry) -> None:
        """Cache (or refresh) a copy; a new item entering a full cache
        first evicts the replacement policy's chosen victim.

        For the LC/CC baseline the explicit evict-then-insert is
        equivalent to letting ``cache.insert`` evict internally: the
        victim is the same LRU entry, both paths bump the same cache
        eviction counter, and the tracer still sees evict before admit.
        A policy names a victim for every non-empty cache, so the
        ``cache.insert`` below never has to evict on its own.
        """
        new_item = entry.item not in self.cache
        if new_item and self.cache.is_full:
            victim = self.replacement.select_victim(self.env.now)
            if victim is not None:
                self.cache.evict(victim.item)
                if self.signatures is not None:
                    self.signatures.record_evict(victim.item, self.cache)
                if self._tracer is not None:
                    self._tracer.point(
                        self._shapes.cache_evict, self.index, None, victim.item
                    )
        self.cache.insert(entry, self.env.now)
        self.replacement.note_insert(entry, self.env.now)
        if new_item:
            if self.signatures is not None:
                self.signatures.record_insert(entry.item)
            if self._tracer is not None:
                self._tracer.point(
                    self._shapes.cache_admit, self.index, None, entry.item
                )
        if self._monitor is not None:
            self._monitor.check_client_cache(self.index, self.cache, self.env.now)

    # ---------------------------------------------------------------- disconnection

    def _disconnect_cycle(self):
        """Go offline for DiscTime, then run the reconnection protocol."""
        self.disconnections += 1
        self.connected = False
        self.network.set_connected(self.index, False)
        if self.ndp is not None:
            self.ndp.forget(self.index)
        duration = float(uniform(self.rng, self.config.disc_min, self.config.disc_max))
        if self._tracer is not None:
            # Emitted after the RNG draw so traced runs stay bit-identical.
            self._tracer.point(self._shapes.disconnect, self.index, None, duration)
        yield self.env.timeout(duration)
        self.connected = True
        self.network.set_connected(self.index, True)
        if self._tracer is not None:
            self._tracer.point(self._shapes.reconnect, self.index, None)
        if self.signatures is not None:
            yield from self._reconnect_protocol()

    def _reconnect_protocol(self):
        """Section IV-D.5: membership sync + signature recollection."""
        backoff = self.config.retry_backoff_base
        for attempt in range(1 + self.config.uplink_retry_limit):
            if attempt:
                self._mark("uplink-retry", -1, attempt)
                yield self.env.timeout(self._backoff_delay(backoff))
                backoff *= 2.0
            sent = yield from self.channel.send_uplink(self.sizes.membership_sync)
            if not sent:
                continue
            members = self.server.handle_membership_sync(self.index)
            self.last_server_contact = self.env.now
            received = yield from self.channel.send_downlink(
                self.sizes.membership_sync
                + len(members) * self.sizes.membership_entry
            )
            if not received:
                continue
            actions = self.signatures.reconnect_sync(members)
            self._execute_membership_actions(actions)
            return
        # Sync lost on every attempt: run with possibly stale membership
        # until the next successful server contact corrects it.

    # ------------------------------------------------------------------- crashes

    def crash(self) -> None:
        """Crash-stop outage: drop off the air with no goodbye protocol.

        Unlike :meth:`_disconnect_cycle` the NDP is *not* told — neighbours
        keep believing the link is up until they miss enough beacons, and
        GroCoCa members keep counting us until the MSS notices.
        """
        self.crashes += 1
        self.connected = False
        self.network.set_connected(self.index, False)
        if self._tracer is not None:
            self._tracer.point(self._shapes.fault_crash, self.index, None)

    def recover(self):
        """Process helper: come back up after a crash outage.

        The rebooted host has no neighbour table (``forget`` wipes its NDP
        row) and, under GroCoCa, resyncs membership and recollects member
        signatures exactly as after a graceful disconnection.
        """
        self.connected = True
        self.network.set_connected(self.index, True)
        if self._tracer is not None:
            self._tracer.point(self._shapes.fault_recover, self.index, None)
        if self.ndp is not None:
            self.ndp.forget(self.index)
        if self.signatures is not None:
            yield from self._reconnect_protocol()
