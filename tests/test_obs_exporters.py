"""Exporters, summaries, sweep integration and the trace CLI surface."""

import json
import math

import pytest

from repro.core.config import CachingScheme, SimulationConfig
from repro.experiments.parallel import RunSpec, execute_runs
from repro.obs import (
    SAMPLE_COLUMNS,
    Observer,
    phase_breakdown,
    format_breakdown,
    load_events,
    run_traced,
    summarize_path,
    trace_slug,
    traced_runner,
    write_jsonl,
)
from repro.obs.summary import find_trace_files
from repro.obs.tracer import Tracer, TraceError
from repro import cli

_SMALL = dict(
    n_clients=8,
    n_data=200,
    access_range=40,
    cache_size=8,
    group_size=4,
    measure_requests=8,
    warmup_min_time=30.0,
    warmup_max_time=60.0,
    ndp_enabled=False,
)


def _config(scheme=CachingScheme.GC, seed=31, **overrides):
    return SimulationConfig(scheme=scheme, seed=seed, **{**_SMALL, **overrides})


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace") / "gc"
    results, paths = run_traced(_config(), out, sample_period=5.0)
    return results, paths


def test_jsonl_round_trip(traced):
    _results, paths = traced
    events = load_events(paths["jsonl"])
    assert events
    rewritten = paths["jsonl"].parent / "rewritten.jsonl"
    write_jsonl(events, rewritten)
    assert rewritten.read_bytes() == paths["jsonl"].read_bytes()


def test_chrome_trace_structure(traced):
    _results, paths = traced
    payload = json.loads(paths["chrome"].read_text(encoding="utf-8"))
    assert payload["displayTimeUnit"] == "ms"
    rows = payload["traceEvents"]
    phases = {row["ph"] for row in rows}
    assert phases == {"M", "X", "i"}
    spans = [row for row in rows if row["ph"] == "X"]
    assert all(row["ts"] >= 0 and row["dur"] >= 0 for row in spans)
    # Host h maps to pid h+1; pid 0 is the system track (NDP / TCG).
    named = {
        row["pid"]: row["args"]["name"]
        for row in rows
        if row["ph"] == "M" and row["name"] == "process_name"
    }
    assert named[0] == "system"
    assert named[1] == "host 0"


def test_series_csv_columns_and_rows(traced):
    _results, paths = traced
    lines = paths["series"].read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split(",") == list(SAMPLE_COLUMNS)
    assert len(lines) > 2  # at least a couple of samples plus the header
    final = lines[-1].split(",")
    assert not math.isnan(float(final[SAMPLE_COLUMNS.index("tcg_size_mean")]))


def test_phase_breakdown_formatting(traced):
    _results, paths = traced
    from repro.obs import derive_spans

    stats = phase_breakdown(derive_spans(load_events(paths["jsonl"])))
    names = [row.name for row in stats]
    assert "request" in names and "local" in names
    text = format_breakdown(stats, title="phase latency")
    assert text.startswith("phase latency")
    assert "request" in text


def test_summarize_path_accepts_file_and_directory(traced):
    _results, paths = traced
    for target in (paths["jsonl"], paths["jsonl"].parent):
        text = summarize_path(target)
        assert "phase latency breakdown" in text
        assert "request" in text
    with pytest.raises(FileNotFoundError):
        summarize_path(paths["jsonl"].parent / "missing")
    with pytest.raises(FileNotFoundError):
        find_trace_files(paths["jsonl"].parent / "missing")


def test_tracer_error_paths():
    tracer = Tracer()
    with pytest.raises(TraceError):
        tracer.begin("span")  # not bound to an environment
    from repro.sim.kernel import Environment

    tracer.bind(Environment())
    span = tracer.begin("span")
    tracer.end(span)
    with pytest.raises(TraceError):
        tracer.end(span)  # double close
    with pytest.raises(TraceError):
        tracer.end(999)  # never opened


def test_sampler_rejects_bad_period_and_unknown_column():
    from repro.obs import TimeSeriesSampler

    with pytest.raises(ValueError):
        TimeSeriesSampler(0.0)
    with pytest.raises(KeyError) as excinfo:
        TimeSeriesSampler(1.0).series("nope")
    assert "available" in str(excinfo.value)


def test_traced_runner_per_sweep_aggregation(tmp_path):
    """The execute_runs hook writes one bundle per run; the sweep-level
    aggregation folds them into a single breakdown."""
    configs = [_config(seed=31), _config(seed=32, scheme=CachingScheme.CC)]
    specs = [RunSpec(config=c, label=f"run-{i}") for i, c in enumerate(configs)]
    runner = traced_runner(tmp_path, sample_period=10.0)
    results = execute_runs(specs, runner=runner)
    assert len(results) == 2 and all(r is not None for r in results)
    bundles = sorted(tmp_path.rglob("trace.jsonl"))
    assert len(bundles) == 2
    slugs = {trace_slug(c) for c in configs}
    assert {path.parent.name for path in bundles} == slugs
    text = summarize_path(tmp_path)
    assert "2 trace(s)" in text
    assert "request" in text


def test_cli_run_trace_out(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = cli.main(
        [
            "run",
            "--scheme", "GC",
            "--clients", "8",
            "--data", "200",
            "--cache-size", "8",
            "--access-range", "40",
            "--requests", "5",
            "--seed", "31",
            "--no-ndp",
            "--trace-out", str(out),
            "--sample-period", "20",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    for name in ("trace.jsonl", "trace.chrome.json", "series.csv", "manifest.json"):
        assert (out / name).exists(), name
    # The Chrome export is valid JSON (the python -m json.tool check).
    json.loads((out / "trace.chrome.json").read_text(encoding="utf-8"))
    assert "phase latency" in captured.out


def test_cli_trace_summarize(tmp_path, capsys):
    run_traced(_config(), tmp_path / "gc", sample_period=None)
    code = cli.main(["trace", "summarize", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "phase latency breakdown" in captured.out
    assert cli.main(["trace", "summarize", str(tmp_path / "missing")]) == 2


@pytest.mark.parametrize(
    "line, reason",
    [
        ('{"bad json', "invalid JSON: "),
        ("[1,2]", "expected an object with keys kind, name, t"),
        ('{"ph":"X"}', "expected an object with keys kind, name, t"),
    ],
    ids=["not-json", "not-an-object", "missing-keys"],
)
def test_malformed_trace_line_is_named(tmp_path, capsys, line, reason):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind": "I", "name": "ok", "t": 0.0}\n' + line + "\n")
    named = f"trace {path}: line 2: {reason}"
    with pytest.raises(ValueError) as excinfo:
        load_events(path)
    assert str(excinfo.value).startswith(named)
    assert cli.main(["trace", "summarize", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro trace: error: {named}")
    assert err.count("\n") == 1  # one line, no traceback


def test_run_traced_without_sampler_skips_series(tmp_path):
    _results, paths = run_traced(_config(), tmp_path / "gc", sample_period=None)
    assert "series" not in paths
    assert paths["jsonl"].exists()


def test_observer_rejects_double_attach():
    observer = Observer(sample_period=1.0)
    from repro.core.simulation import Simulation

    simulation = Simulation(_config(), observer=observer)
    with pytest.raises(RuntimeError):
        observer.sampler.attach(simulation)
