"""Observability: span tracing, time-series sampling, trace exporters.

See ``docs/OBSERVABILITY.md`` for the span taxonomy, the exporter formats
and the Perfetto workflow.  The layer is strictly read-only: attaching an
:class:`Observer` never changes a run's :class:`~repro.core.metrics.Results`,
and a run without one executes not a single tracing instruction (the
bit-identity and trace-contract test suites pin both properties).

The package records and exports; it does not judge.  The trace contract
that reconciles a timeline with its run lives in ``tools/trace_contract.py``
and the committed Chrome-trace schema in ``tests/``.
"""

from repro.obs.export import (
    export_bundle,
    load_events,
    write_chrome_trace,
    write_jsonl,
    write_series_csv,
)
from repro.obs.sampler import SAMPLE_COLUMNS, TimeSeriesSampler
from repro.obs.session import Observer, run_traced, trace_slug, traced_runner
from repro.obs.summary import (
    PhaseStats,
    format_breakdown,
    phase_breakdown,
    summarize_path,
)
from repro.obs.tracer import Span, TraceError, TraceEvent, Tracer, derive_spans

__all__ = [
    "SAMPLE_COLUMNS",
    "Observer",
    "PhaseStats",
    "Span",
    "TraceError",
    "TraceEvent",
    "Tracer",
    "TimeSeriesSampler",
    "derive_spans",
    "export_bundle",
    "format_breakdown",
    "load_events",
    "phase_breakdown",
    "run_traced",
    "summarize_path",
    "trace_slug",
    "traced_runner",
    "write_chrome_trace",
    "write_jsonl",
    "write_series_csv",
]
