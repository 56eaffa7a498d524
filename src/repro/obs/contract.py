"""The trace contract: structural well-formedness plus conservation.

:func:`check_trace` is executable documentation of the request protocol.
It verifies, over one run's event list:

* **balance** — every span that opens also closes, and nothing closes
  twice or out of nowhere,
* **monotonicity** — events are recorded in non-decreasing sim-time,
* **containment** — a child span nests inside its parent's interval, and
  a parented instant falls inside its parent span,
* **conservation** — recorded span/instant counts reconcile *exactly*
  with the run's :class:`~repro.core.metrics.Results` counters (requests
  by outcome, searches, bypasses, fallbacks, retries, validations) and
  with the :class:`~repro.sim.profile.RunProfile` fault/NDP counters.

Spans swept by :meth:`~repro.obs.tracer.Tracer.finish` (in flight when
the run stopped) close with ``recorded=False`` and are exempt from
conservation; containment still applies, which is exactly what makes an
instrumentation bug (a span whose close call was lost while its parent
completed) fail loudly instead of masquerading as in-flight work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.metrics import COUNTED_EVENTS, Results
from repro.obs.tracer import Span, TraceEvent, derive_spans
from repro.sim.profile import RunProfile

__all__ = ["check_trace"]


def _recorded(args: Dict[str, object]) -> bool:
    return bool(args.get("recorded", False))


def _check_balance(events: Sequence[TraceEvent], problems: List[str]) -> None:
    open_spans: Set[int] = set()
    closed: Set[int] = set()
    last_time = float("-inf")
    for event in events:
        if event.time < last_time:
            problems.append(
                f"time went backwards: {event.name!r} at {event.time} "
                f"after {last_time}"
            )
        last_time = event.time
        if event.kind == "B":
            if event.span in open_spans or event.span in closed:
                problems.append(f"span {event.span} ({event.name!r}) opened twice")
            open_spans.add(event.span)
        elif event.kind == "E":
            if event.span not in open_spans:
                problems.append(
                    f"span {event.span} ({event.name!r}) closed without opening"
                )
            open_spans.discard(event.span)
            closed.add(event.span)
    for span in sorted(open_spans):
        problems.append(f"span {span} never closed (unbalanced trace)")


def _check_containment(spans: Sequence[Span], problems: List[str]) -> None:
    intervals: Dict[int, Tuple[float, float, str]] = {
        span.span: (span.start, span.end, span.name) for span in spans
    }
    for span in spans:
        if span.parent is None:
            continue
        parent = intervals.get(span.parent)
        if parent is None:
            problems.append(
                f"span {span.span} ({span.name!r}) references unknown "
                f"parent {span.parent}"
            )
            continue
        start, end, parent_name = parent
        if span.start < start or span.end > end:
            problems.append(
                f"span {span.span} ({span.name!r}) [{span.start}, {span.end}] "
                f"escapes parent {span.parent} ({parent_name!r}) "
                f"[{start}, {end}]"
            )


def _check_instants(
    events: Sequence[TraceEvent],
    spans: Sequence[Span],
    problems: List[str],
) -> None:
    intervals = {span.span: (span.start, span.end, span.name) for span in spans}
    for event in events:
        if event.kind != "I" or event.parent is None:
            continue
        parent = intervals.get(event.parent)
        if parent is None:
            problems.append(
                f"instant {event.name!r} references unknown parent {event.parent}"
            )
            continue
        start, end, parent_name = parent
        if not start <= event.time <= end:
            problems.append(
                f"instant {event.name!r} at {event.time} outside parent "
                f"{event.parent} ({parent_name!r}) [{start}, {end}]"
            )


def _count_spans(
    spans: Sequence[Span], name: str, statuses: Optional[Set[str]] = None
) -> int:
    return sum(
        1
        for span in spans
        if span.name == name
        and _recorded(span.args)
        and (statuses is None or span.status in statuses)
    )


def _count_instants(
    events: Sequence[TraceEvent], name: str, recorded_only: bool = True
) -> int:
    return sum(
        1
        for event in events
        if event.kind == "I"
        and event.name == name
        and (not recorded_only or _recorded(event.args))
    )


def _check_conservation(
    events: Sequence[TraceEvent],
    spans: Sequence[Span],
    results: Results,
    problems: List[str],
) -> None:
    def expect(label: str, observed: int, expected: int) -> None:
        if observed != expected:
            problems.append(
                f"conservation: {label}: trace has {observed}, "
                f"Results says {expected}"
            )

    requests = [s for s in spans if s.name == "request" and _recorded(s.args)]
    expect("recorded request spans", len(requests), results.requests)
    by_status = {
        "local_hit": results.local_hits,
        "global_hit": results.global_hits,
        "server": results.server_requests,
        "failure": results.failures,
    }
    for status, expected in by_status.items():
        observed = sum(1 for s in requests if s.status == status)
        expect(f"request status {status!r}", observed, expected)
        # Per-outcome latency accumulators must count the same requests
        # the spans do (zero-count outcomes are omitted from Results).
        latency_count = results.latency_by_outcome.get(status.upper(), (0, 0.0))[0]
        expect(f"latency_by_outcome[{status.upper()!r}]", observed, latency_count)
    tcg_hits = sum(
        1
        for s in requests
        if s.status == "global_hit" and bool(s.args.get("from_tcg"))
    )
    expect("TCG-member global hits", tcg_hits, results.global_hits_tcg)

    searches = [s for s in spans if s.name == "search"]
    opened = sum(1 for s in searches if bool(s.args.get("recorded_open")))
    expect("recorded search spans", opened, results.peer_searches)
    fallbacks = _count_spans(spans, "search", {"timeout", "fallback"})
    expect("MSS fallbacks", fallbacks, results.mss_fallbacks)
    expect(
        "bypassed searches",
        _count_instants(events, "search-bypassed"),
        results.bypassed_searches,
    )
    validations = _count_spans(spans, "validate", {"refreshed", "valid"})
    expect("validations", validations, results.validations)
    expect(
        "validation refreshes",
        _count_spans(spans, "validate", {"refreshed"}),
        results.validation_refreshes,
    )
    # Counted protocol events: each count emits exactly one recorded
    # instant (MobileHost._mark).  ``.get`` keeps pre-health Results
    # (empty ``health`` dict) reconciling at zero.
    counted = {
        "search": results.search_retries,
        "retrieve": results.retrieve_retries,
        "uplink": results.uplink_retries,
        **results.health,
    }
    for instant, kind in COUNTED_EVENTS.items():
        expect(instant, _count_instants(events, instant), counted.get(kind, 0))


def _check_profile(
    events: Sequence[TraceEvent], profile: RunProfile, problems: List[str]
) -> None:
    counters = profile.counters
    checks = (
        ("ndp-round", "ndp_rounds"),
        ("fault-crash", "fault_crashes"),
    )
    for instant, counter in checks:
        observed = _count_instants(events, instant, recorded_only=False)
        expected = int(counters.get(counter, 0))
        if observed != expected:
            problems.append(
                f"conservation: {instant!r} instants: trace has {observed}, "
                f"RunProfile.counters[{counter!r}] says {expected}"
            )


def check_trace(
    events: Sequence[TraceEvent],
    results: Optional[Results] = None,
    profile: Optional[RunProfile] = None,
) -> List[str]:
    """Verify one run's trace; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    _check_balance(events, problems)
    spans = derive_spans(events)
    _check_containment(spans, problems)
    _check_instants(events, spans, problems)
    if results is not None:
        _check_conservation(events, spans, results, problems)
    if profile is not None:
        _check_profile(events, profile, problems)
    return problems
