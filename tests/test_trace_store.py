"""The column-store tracer records exactly what the list-of-objects one did.

``repro.obs.tracer.Tracer`` keeps its events in ``array`` columns, shape
codes and one flat list of arg values; ``tests/_trace_reference.py`` keeps
the design it replaced.  Each run here simulates the same configuration
once under each tracer, at the same seed, and requires every event to be
equal field by field (``args`` in the caller's key order), the trace
contract's verdict to be the same, and the JSONL and Chrome exports to be
the same bytes.  The rest pins the ``events`` view: a read-only sequence.
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


def test_args_keep_the_callers_key_order():
    tracer = Tracer()
    tracer.bind(Environment())
    span = tracer.begin("request", host=2, zeta=1, alpha=2)
    tracer.instant("note", parent=span, b=None, a="x")
    tracer.instant("note", parent=span, a="y", b=0)  # same keys, other order
    tracer.end(span, status="done", mid=3.5, first=True)
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
    env = Environment()
    tracer = Tracer()
    tracer.bind(env)
    span = tracer.begin("outer", host=0)
    tracer.instant("tick")
    tracer.end(span)
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
    tracer.instant("late")  # the view is live
    assert len(events) == 4


def test_an_unbound_tracer_records_nothing():
    """The clock is read before any column is touched."""
    tracer = Tracer()
    with pytest.raises(TraceError):
        tracer.instant("early", host=1, item=2)
    assert len(tracer.events) == 0 and tracer._values == []


@pytest.mark.parametrize(
    "record",
    [
        lambda t: t.begin("bad", host=1, parent=-1, item=3),
        lambda t: t.begin("bad", host=-1, item=3),
        lambda t: t.begin("bad", host=1.5),
        lambda t: t.instant("bad", host=2, parent=-1, item=3),
        lambda t: t.instant("bad", host=1 << 64),
    ],
    ids=["begin-parent", "begin-host", "begin-float", "instant-parent", "instant-huge"],
)
def test_a_refused_id_leaves_the_store_unchanged(record):
    """A host or parent no column can hold is refused before anything moves."""
    tracer = Tracer()
    tracer.bind(Environment())
    span = tracer.begin("request", host=4, item=1)
    tracer.instant("note", host=4, parent=span, hop=2)
    before = [e.as_dict() for e in tracer.events]
    with pytest.raises(TraceError):
        record(tracer)
    assert [e.as_dict() for e in tracer.events] == before
    assert tracer.open_spans == 1 and tracer._values == [1, 2]
    tracer.end(span, status="done", hits=5)
    later = tracer.begin("again", host=7, parent=span, item=9)
    assert later == span + 1
    assert [e.as_dict() for e in tracer.events][2:] == [
        {"kind": "E", "name": "request", "t": 0.0, "host": 4, "span": 0,
         "status": "done", "args": {"hits": 5}},
        {"kind": "B", "name": "again", "t": 0.0, "host": 7, "span": 1,
         "parent": 0, "args": {"item": 9}},
    ]
