"""Trace-contract suite: every traced run yields a reconcilable timeline.

The contract (see ``tools/trace_contract.py``): spans are balanced and nested,
instants sit inside their parent span, and the recorded span/instant
counts reconcile *exactly* with the run's :class:`Results` counters and
the :class:`RunProfile` work counters — across LC / CC / GC, several
seeds, and a fault-injected run.  A deliberately injected unbalanced-span
bug must make the checker fail loudly.  Chrome exports are validated
with ``jsonschema`` against the committed ``chrome_trace.schema.json``.
"""

import copy
import json
import os
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

from repro.core.client import MobileHost
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import COUNTED_EVENTS, results_to_dict
from repro.core.simulation import run_simulation
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults
from repro.obs import Observer, derive_spans, run_traced
from repro.obs.export import chrome_trace_payload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from trace_contract import check_trace  # noqa: E402

#: The exact shape ``repro.obs.export.write_chrome_trace`` emits.
CHROME_SCHEMA = json.loads(
    (Path(__file__).resolve().parent / "chrome_trace.schema.json").read_text(
        encoding="utf-8"
    )
)

#: Small enough that one traced run takes well under a second, large
#: enough that caches fill, searches fan out and TCGs form.
_BASE = dict(
    n_clients=8,
    n_data=200,
    access_range=40,
    cache_size=8,
    group_size=4,
    measure_requests=8,
    warmup_min_time=30.0,
    warmup_max_time=60.0,
    ndp_enabled=True,
)

_FAULT_PLAN = FaultPlan(
    p2p=LinkFaults(loss=0.15, burst_loss=0.3, burst_on=0.05, burst_off=0.5),
    uplink=LinkFaults(loss=0.08),
    downlink=LinkFaults(loss=0.08),
    crash=CrashFaults(rate=0.002, down_min=2.0, down_max=6.0),
)


def _config(scheme, seed, **overrides):
    return SimulationConfig(scheme=scheme, seed=seed, **{**_BASE, **overrides})


def _traced_run(config, sample_period=5.0):
    observer = Observer(sample_period=sample_period)
    results = run_simulation(config, observer=observer)
    return observer, results


SCHEMES = [CachingScheme.LC, CachingScheme.CC, CachingScheme.GC]
SEEDS = [11, 23, 47]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
def test_contract_holds_across_schemes_and_seeds(scheme, seed):
    observer, results = _traced_run(_config(scheme, seed))
    problems = check_trace(
        observer.tracer.events, results=results, profile=results.profile
    )
    assert problems == [], "\n".join(problems)
    assert observer.tracer.open_spans == 0


def test_contract_holds_under_fault_injection():
    config = _config(
        CachingScheme.GC,
        seed=7,
        faults=_FAULT_PLAN,
        search_retry_limit=1,
        retrieve_retry_limit=1,
    )
    observer, results = _traced_run(config)
    problems = check_trace(
        observer.tracer.events, results=results, profile=results.profile
    )
    assert problems == [], "\n".join(problems)
    # The fault machinery actually ran (the contract reconciled it).
    assert "fault_crashes" in results.profile.counters


def test_request_spans_reconcile_with_results_directly():
    """One explicit reconciliation, independent of the checker's wording."""
    observer, results = _traced_run(_config(CachingScheme.GC, seed=11))
    spans = derive_spans(observer.tracer.events)
    recorded = [
        s for s in spans if s.name == "request" and s.args.get("recorded")
    ]
    assert len(recorded) == results.requests
    by_status = Counter(s.status for s in recorded)
    assert by_status.get("local_hit", 0) == results.local_hits
    assert by_status.get("global_hit", 0) == results.global_hits
    assert by_status.get("server", 0) == results.server_requests
    assert by_status.get("failure", 0) == results.failures


def test_spans_are_balanced_after_finalize():
    observer, _results = _traced_run(_config(CachingScheme.CC, seed=23))
    assert observer.tracer.finished
    assert observer.tracer.open_spans == 0
    assert not any(s.status == "open" for s in derive_spans(observer.tracer.events))


def test_chrome_trace_validates_against_committed_schema():
    observer, _results = _traced_run(_config(CachingScheme.GC, seed=11))
    payload = json.loads(json.dumps(chrome_trace_payload(observer.tracer.events)))
    jsonschema.validate(payload, CHROME_SCHEMA)


_VALID_CHROME = {
    "displayTimeUnit": "ms",
    "traceEvents": [
        {"name": "request", "ph": "X", "pid": 0, "tid": 1, "ts": 0.0, "dur": 5.0}
    ],
}

#: One edit each that the schema must refuse.
_SPOILERS = {
    "extra-top-level-key": lambda payload: payload.update(extra=1),
    "begin-phase": lambda payload: payload["traceEvents"][0].update(ph="B"),
    "negative-ts": lambda payload: payload["traceEvents"][0].update(ts=-1.0),
    "empty-name": lambda payload: payload["traceEvents"][0].update(name=""),
}


@pytest.mark.parametrize("spoil", list(_SPOILERS.values()), ids=list(_SPOILERS))
def test_committed_schema_rejects_what_the_exporter_never_writes(spoil):
    payload = copy.deepcopy(_VALID_CHROME)
    jsonschema.validate(payload, CHROME_SCHEMA)
    spoil(payload)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, CHROME_SCHEMA)


def test_injected_unbalanced_span_bug_fails_loudly(monkeypatch):
    """Dropping the search span's end call must trip the checker."""
    original = MobileHost._finish_search

    def buggy(self, sid, outcome):
        tracer, self._tracer = self._tracer, None
        try:
            original(self, sid, outcome)
        finally:
            self._tracer = tracer

    monkeypatch.setattr(MobileHost, "_finish_search", buggy)
    # CC searches on every cache miss, so the bug is certain to trigger.
    observer, results = _traced_run(_config(CachingScheme.CC, seed=11))
    problems = check_trace(
        observer.tracer.events, results=results, profile=results.profile
    )
    assert problems, "the injected unbalanced-span bug went undetected"
    assert any("search" in problem for problem in problems)


def test_sample_trace_bundle_exports(tmp_path):
    """Full bundle export; doubles as the CI sample-trace artifact."""
    artifact_root = os.environ.get("REPRO_TRACE_ARTIFACT_DIR")
    out = Path(artifact_root) if artifact_root else tmp_path
    config = _config(CachingScheme.GC, seed=11)
    results, paths = run_traced(config, out / "gc-sample")
    for kind in ("jsonl", "chrome", "series", "manifest"):
        assert paths[kind].exists(), kind
    payload = json.loads(paths["chrome"].read_text(encoding="utf-8"))
    jsonschema.validate(payload, CHROME_SCHEMA)
    manifest = json.loads(paths["manifest"].read_text(encoding="utf-8"))
    # The golden fixture's two forms, plus the event count of trace.jsonl.
    assert set(manifest) == {"config", "events", "results"}
    assert SimulationConfig.from_dict(manifest["config"]) == config
    assert manifest["results"] == results_to_dict(results)
    with paths["jsonl"].open(encoding="utf-8") as handle:
        assert manifest["events"] == sum(1 for _ in handle)


#: The pair of runs of ``test_every_counted_event_is_reconciled_non_vacuously``.
_COUNTED_BASE = dict(
    scheme=CachingScheme.GC,
    n_clients=20,
    n_data=1500,
    access_range=150,
    cache_size=15,
    measure_requests=12,
    warmup_min_time=40.0,
    warmup_max_time=40.0,
    data_update_rate=3.0,
    p_disc=0.1,
    search_retry_limit=1,
    breaker_threshold=2,
    crash_failover=True,
)
_COUNTED_RUNS = [
    # Lossy links + hedging: every retry kind, hedges and hedge wins,
    # breaker trips and half-open probes.
    dict(
        seed=1,
        faults=FaultPlan(
            p2p=LinkFaults(loss=0.15),
            uplink=LinkFaults(loss=0.1),
            downlink=LinkFaults(loss=0.1),
            crash=CrashFaults(rate=0.01),
        ),
        retrieve_retry_limit=2,
        peer_policy="latency-aware",
        hedge_quantile=0.5,
        retrieve_deadline=0.5,
        retry_jitter=0.2,
    ),
    # Crash storm + a 20 ms budget: exhausted budgets and crash fail-overs.
    dict(
        seed=3,
        faults=FaultPlan(
            p2p=LinkFaults(loss=0.3),
            crash=CrashFaults(rate=0.2, down_min=0.5, down_max=2.0),
        ),
        retrieve_retry_limit=3,
        peer_policy="power-aware",
        retrieve_deadline=0.02,
    ),
]


def test_every_counted_event_is_reconciled_non_vacuously():
    """Each row of ``COUNTED_EVENTS`` reconciles against a non-zero count."""
    seen = Counter()
    for overrides in _COUNTED_RUNS:
        observer, results = _traced_run(
            SimulationConfig(**{**_COUNTED_BASE, **overrides})
        )
        events = observer.tracer.events
        problems = check_trace(events, results=results, profile=results.profile)
        assert problems == [], "\n".join(problems)
        # The contract just equated recorded instants with the Results
        # counters, so counting the instants counts what was reconciled.
        seen.update(
            e.name for e in events if e.kind == "I" and e.args.get("recorded")
        )
        assert seen["search-retry"] >= results.search_retries > 0
    assert len(COUNTED_EVENTS) == 9
    assert [event for event in COUNTED_EVENTS if not seen[event]] == [], dict(seen)


def test_docs_list_every_instant():
    """docs/OBSERVABILITY.md names every counted instant (and breaker-close)."""
    text = (
        Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
    ).read_text(encoding="utf-8")
    instants = text[text.index("Instants (point events)"):]
    instants = instants[: instants.index("\n\n")]
    missing = [
        name
        for name in [*COUNTED_EVENTS, "breaker-close"]
        if f"`{name}`" not in instants
    ]
    assert missing == []
