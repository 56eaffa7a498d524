"""The column-store tracer records exactly what the list-of-objects one did.

``repro.obs.tracer.Tracer`` keeps its events in ``array`` columns, shape
codes declared once per call site and one flat list of arg values; ``tests/_trace_reference.py`` keeps
the design it replaced.  Each run here simulates the same configuration
once under each tracer, at the same seed, and requires every event to be
equal field by field (``args`` in the caller's key order), the trace
contract's verdict to be the same, and the JSONL and Chrome exports to be
the same bytes.  The rest pins the declared recorders and the ``events``
view: a read-only sequence that checks each event against its shape.
"""

import sys
from pathlib import Path

import pytest

from repro.core.metrics import results_to_dict
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.simulation import run_simulation
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults
from repro.obs import Observer, TraceError, TraceEvent, Tracer
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.sim.kernel import Environment
from tests._trace_reference import ReferenceTracer

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from trace_contract import check_trace  # noqa: E402

_BASE = dict(
    n_clients=8,
    n_data=200,
    access_range=40,
    cache_size=8,
    group_size=4,
    measure_requests=8,
    warmup_min_time=30.0,
    warmup_max_time=60.0,
    seed=17,
)

RUNS = {
    "LC": dict(scheme=CachingScheme.LC),
    "CC": dict(scheme=CachingScheme.CC),
    "GC": dict(scheme=CachingScheme.GC),
    # Updates, disconnections and every fault kind: validation spans,
    # retries, crash and reconnect instants.
    "GC-faults": dict(
        scheme=CachingScheme.GC,
        data_update_rate=3.0,
        p_disc=0.1,
        retrieve_retry_limit=2,
        faults=FaultPlan(
            p2p=LinkFaults(loss=0.15, burst_loss=0.3, burst_on=0.05, burst_off=0.5),
            uplink=LinkFaults(loss=0.08),
            downlink=LinkFaults(loss=0.08),
            crash=CrashFaults(rate=0.01, down_min=2.0, down_max=6.0),
        ),
    ),
    # The failure-aware retrieve layer (repro.net.health), in two runs:
    # lossy links and hedging give hedges, hedge wins, breaker trips,
    # probes and closes, and failed validations; a crash storm under a
    # 50 ms budget gives exhausted budgets and crash fail-overs.
    "GC-health-hedge": dict(
        scheme=CachingScheme.GC,
        n_clients=12,
        seed=1,
        data_update_rate=3.0,
        search_retry_limit=1,
        breaker_threshold=2,
        crash_failover=True,
        retrieve_retry_limit=2,
        peer_policy="latency-aware",
        hedge_quantile=0.5,
        retrieve_deadline=0.5,
        retry_jitter=0.2,
        faults=FaultPlan(
            p2p=LinkFaults(loss=0.15),
            uplink=LinkFaults(loss=0.3),
            downlink=LinkFaults(loss=0.3),
            crash=CrashFaults(rate=0.01),
        ),
    ),
    "GC-health-crashes": dict(
        scheme=CachingScheme.GC,
        n_clients=12,
        seed=3,
        search_retry_limit=1,
        breaker_threshold=2,
        crash_failover=True,
        retrieve_retry_limit=3,
        peer_policy="latency-aware",
        hedge_quantile=0.5,
        retrieve_deadline=0.05,
        faults=FaultPlan(
            p2p=LinkFaults(loss=0.3),
            crash=CrashFaults(rate=0.1, down_min=0.5, down_max=2.0),
        ),
    ),
}


def _fields(event):
    return (
        event.kind,
        event.name,
        event.time,
        event.host,
        event.span,
        event.parent,
        event.status,
        list(event.args.items()),  # a list keeps the key order
    )


def _traced(tracer, overrides):
    observer = Observer(sample_period=None, tracer=tracer)
    results = run_simulation(SimulationConfig(**{**_BASE, **overrides}), observer=observer)
    return tracer, results


@pytest.mark.parametrize("run", sorted(RUNS))
def test_store_records_the_reference_events(run, tmp_path):
    store, results = _traced(Tracer(), RUNS[run])
    reference, reference_results = _traced(ReferenceTracer(), RUNS[run])
    assert results_to_dict(results) == results_to_dict(reference_results)
    events = store.events
    assert len(events) == len(reference.events) > 100
    assert [_fields(e) for e in events] == [_fields(e) for e in reference.events]
    assert store.spans() == reference.spans()
    verdict = check_trace(events, results=results, profile=results.profile)
    assert verdict == check_trace(
        reference.events, results=results, profile=results.profile
    )
    assert verdict == []
    for writer, name in ((write_jsonl, "trace.jsonl"), (write_chrome_trace, "chrome.json")):
        mine = writer(events, tmp_path / f"store-{name}").read_bytes()
        assert mine == writer(reference.events, tmp_path / f"ref-{name}").read_bytes()


def _event_shape(event):
    return (event.kind, event.name, event.status, tuple(event.args))


def test_every_declared_shape_is_recorded():
    """The byte-identity runs above record every event shape a run's hosts
    and layers declare, so no declared recorder goes unchecked."""
    declared, recorded = set(), set()
    for overrides in RUNS.values():
        tracer, _results = _traced(Tracer(), overrides)
        declared.update(tracer._shapes)
        recorded.update(_event_shape(e) for e in tracer.events)
    assert len(declared) > 40
    assert sorted(declared - recorded) == []


def _bound():
    tracer = Tracer()
    tracer.bind(Environment())
    return tracer


def test_args_keep_the_callers_key_order():
    """The caller declares the key order once; every event keeps it."""
    tracer = _bound()
    request = tracer.declare("B", "request", ("zeta", "alpha"))
    note_ba = tracer.declare("I", "note", ("b", "a"))
    note_ab = tracer.declare("I", "note", ("a", "b"))  # same keys, other order
    done = tracer.declare("E", "request", ("mid", "first"), "done")
    assert tracer.declare("I", "note", ["b", "a"]) == note_ba  # declared once
    span = tracer.open(request, 2, None, 1, 2)
    tracer.point(note_ba, None, span, None, "x")
    tracer.point(note_ab, None, span, "y", 0)
    tracer.close(span, done, 3.5, True)
    events = list(tracer.events)
    assert [list(e.args) for e in events] == [
        ["zeta", "alpha"],
        ["b", "a"],
        ["a", "b"],
        ["mid", "first"],
    ]
    assert [e.args for e in events][1:3] == [{"b": None, "a": "x"}, {"a": "y", "b": 0}]
    assert (events[3].kind, events[3].name, events[3].host, events[3].status) == (
        "E", "request", 2, "done",
    )


def test_events_is_a_read_only_sequence():
    tracer = _bound()
    outer = tracer.declare("B", "outer")
    tick = tracer.declare("I", "tick")
    span = tracer.open(outer, 0, None)
    tracer.point(tick, None, None)
    tracer.close(span, tracer.declare("E", "outer", (), "ok"))
    events = tracer.events
    assert len(events) == 3 and events
    assert isinstance(events[0], TraceEvent)
    assert [e.kind for e in events] == ["B", "I", "E"]
    assert events[-1].kind == "E" and [e.kind for e in events[1:]] == ["I", "E"]
    instant = events[1]
    assert (instant.host, instant.span, instant.parent, instant.args) == (None, -1, None, {})
    with pytest.raises(IndexError):
        events[3]
    events[0].args["injected"] = True  # a built event is a copy
    assert events[0].args == {}
    assert not hasattr(events, "append")
    with pytest.raises(AttributeError):
        tracer.events = []
    tracer.point(tick, None, None)  # the view is live
    assert len(events) == 4


def test_an_unbound_tracer_records_nothing():
    """The clock is read before any column is touched."""
    tracer = Tracer()
    early = tracer.declare("I", "early", ("item",))
    with pytest.raises(TraceError):
        tracer.point(early, 1, None, 2)
    assert len(tracer.events) == 0 and tracer._values == []


@pytest.mark.parametrize(
    "kind, status",
    [("X", None), ("B", "ok"), ("I", "ok"), ("E", None)],
)
def test_a_shape_is_a_kind_with_a_status_only_at_an_end(kind, status):
    with pytest.raises(TraceError):
        Tracer().declare(kind, "bad", (), status)


@pytest.mark.parametrize(
    "record",
    [
        lambda t, c: t.open(c["bad"], 1, -1, 3),
        lambda t, c: t.open(c["bad"], -1, None, 3),
        lambda t, c: t.open(c["bad"], 1.5, None, 3),
        lambda t, c: t.open(-1, 1, None, 3),
        lambda t, c: t.point(c["note"], 2, -1, 3),
        lambda t, c: t.point(c["note"], 1 << 64, None, 3),
        lambda t, c: t.point("note", 1, None, 3),
    ],
    ids=[
        "begin-parent",
        "begin-host",
        "begin-float",
        "begin-code",
        "instant-parent",
        "instant-huge",
        "instant-name",
    ],
)
def test_a_refused_id_leaves_the_store_unchanged(record):
    """A code, host or parent no column can hold is refused before
    anything moves."""
    tracer = _bound()
    codes = {
        "request": tracer.declare("B", "request", ("item",)),
        "bad": tracer.declare("B", "bad", ("item",)),
        "note": tracer.declare("I", "note", ("hop",)),
        "done": tracer.declare("E", "request", ("hits",), "done"),
        "again": tracer.declare("B", "again", ("item",)),
    }
    span = tracer.open(codes["request"], 4, None, 1)
    tracer.point(codes["note"], 4, span, 2)
    before = [e.as_dict() for e in tracer.events]
    with pytest.raises(TraceError):
        record(tracer, codes)
    assert [e.as_dict() for e in tracer.events] == before
    assert tracer.open_spans == 1 and tracer._values == [1, 2]
    tracer.close(span, codes["done"], 5)
    later = tracer.open(codes["again"], 7, span, 9)
    assert later == span + 1
    assert [e.as_dict() for e in tracer.events][2:] == [
        {"kind": "E", "name": "request", "t": 0.0, "host": 4, "span": 0,
         "status": "done", "args": {"hits": 5}},
        {"kind": "B", "name": "again", "t": 0.0, "host": 7, "span": 1,
         "parent": 0, "args": {"item": 9}},
    ]


@pytest.mark.parametrize(
    "close_with",
    [
        lambda t: t.declare("E", "other", (), "ok"),  # another span's end
        lambda t: t.declare("B", "request"),  # a begin
        lambda t: t.declare("I", "request"),  # an instant
        lambda t: 999,  # never declared
    ],
    ids=["other-end", "begin", "instant", "undeclared"],
)
def test_a_span_closes_only_with_an_end_of_its_own_name(close_with):
    tracer = _bound()
    span = tracer.open(tracer.declare("B", "request"), 1, None)
    with pytest.raises(TraceError, match="cannot close"):
        tracer.close(span, close_with(tracer))
    assert tracer.open_spans == 1 and len(tracer.events) == 1  # still open
    tracer.close(span, tracer.declare("E", "request", (), "ok"))
    assert [e.kind for e in tracer.events] == ["B", "E"]
    with pytest.raises(TraceError):
        tracer.close(span, tracer.declare("E", "request", (), "ok"))  # twice
    with pytest.raises(TraceError):
        tracer.close(999, tracer.declare("E", "request", (), "ok"))  # never opened


@pytest.mark.parametrize("values", [(), (1, 2)], ids=["too-few", "too-many"])
def test_a_value_count_mismatch_raises_when_read(values):
    """A recorder does not count values; the view refuses an event whose
    values do not match its shape's keys, and reads every other one."""
    tracer = _bound()
    note = tracer.declare("I", "note", ("hop",))
    tracer.point(note, 1, None, 5)
    tracer.point(note, 1, None, *values)
    tracer.point(note, 1, None, 6)
    events = tracer.events
    assert (events[0].args, events[2].args) == ({"hop": 5}, {"hop": 6})
    with pytest.raises(TraceError, match="values for the 1 keys"):
        events[1]
    with pytest.raises(TraceError):
        list(events)


def test_an_undeclared_code_raises_when_read():
    tracer = _bound()
    tracer.point(3, 1, None)
    with pytest.raises(TraceError, match="undeclared"):
        tracer.events[0]
