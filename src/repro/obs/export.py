"""Trace and time-series exporters.

Three on-disk formats per traced run, all derived from the same event
sequence (a list, or a :class:`~repro.obs.tracer.Tracer`'s read-only
``events`` view):

* ``trace.jsonl`` — one :class:`~repro.obs.tracer.TraceEvent` per line,
  the lossless source of truth (``load_events`` reads it back),
* ``trace.chrome.json`` — Chrome trace-event JSON (open in Perfetto /
  ``chrome://tracing``); sim-time seconds become microseconds, every host
  is a process, spans are ``ph="X"`` complete events, instants are
  thread-scoped ``ph="i"``,
* ``series.csv`` — the sampler's windowed time series.

:func:`export_bundle` writes all of them plus a ``manifest.json`` tying
the trace back to its configuration and results.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence

from repro.obs.tracer import TraceEvent, derive_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.config import SimulationConfig
    from repro.core.metrics import Results
    from repro.obs.sampler import TimeSeriesSampler

__all__ = [
    "export_bundle",
    "load_events",
    "write_chrome_trace",
    "write_jsonl",
    "write_series_csv",
]

#: Process id used for system-level events (NDP, TCG, kernel) in the
#: Chrome export; host ``h`` maps to pid ``h + 1``.
_SYSTEM_PID = 0

#: Keys every ``trace.jsonl`` line must carry.
_EVENT_KEYS = {"kind", "name", "t"}


def write_jsonl(events: Iterable[TraceEvent], path: Path) -> Path:
    """One JSON object per line, in recording order."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.as_dict(), sort_keys=True))
            handle.write("\n")
    return path


def load_events(path: Path) -> List[TraceEvent]:
    """Read a ``trace.jsonl`` file back into :class:`TraceEvent` records.

    A line that is not JSON, or not an object carrying ``kind``, ``name``
    and ``t``, raises ``ValueError`` naming the file and line.
    """
    events: List[TraceEvent] = []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"trace {path}: line {number}: invalid JSON: {error}"
                ) from None
            if not isinstance(payload, dict) or not _EVENT_KEYS <= payload.keys():
                raise ValueError(
                    f"trace {path}: line {number}: expected an object with "
                    "keys kind, name, t"
                )
            events.append(
                TraceEvent(
                    kind=payload["kind"],
                    name=payload["name"],
                    time=float(payload["t"]),
                    host=payload.get("host"),
                    span=int(payload.get("span", -1)),
                    parent=payload.get("parent"),
                    status=payload.get("status"),
                    args=payload.get("args", {}),
                )
            )
    return events


def _pid(host: Optional[int]) -> int:
    return _SYSTEM_PID if host is None else host + 1


def _micros(seconds: float) -> float:
    return seconds * 1e6


def chrome_trace_payload(events: Sequence[TraceEvent]) -> Dict[str, object]:
    """The Chrome trace-event JSON document for one event list."""
    rows: List[Dict[str, object]] = []
    pids = {_SYSTEM_PID}
    for span in derive_spans(events):
        pids.add(_pid(span.host))
        rows.append(
            {
                "name": span.name,
                "ph": "X",
                "cat": "span",
                "pid": _pid(span.host),
                "tid": _pid(span.host),
                "ts": _micros(span.start),
                "dur": _micros(span.duration),
                "args": dict(span.args, status=span.status, span=span.span),
            }
        )
    for event in events:
        if event.kind != "I":
            continue
        pids.add(_pid(event.host))
        rows.append(
            {
                "name": event.name,
                "ph": "i",
                "cat": "instant",
                "pid": _pid(event.host),
                "tid": _pid(event.host),
                "ts": _micros(event.time),
                "s": "t",
                "args": dict(event.args),
            }
        )
    metadata: List[Dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {
                "name": "system" if pid == _SYSTEM_PID else f"host {pid - 1}"
            },
        }
        for pid in sorted(pids)
    ]
    return {
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "sim-microseconds"},
        "traceEvents": metadata + rows,
    }


def write_chrome_trace(events: Sequence[TraceEvent], path: Path) -> Path:
    """Write the Perfetto-viewable Chrome trace-event JSON."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace_payload(events), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def write_series_csv(sampler: "TimeSeriesSampler", path: Path) -> Path:
    """Write the sampler's time series as CSV (header + one row/sample)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(sampler.columns)
        writer.writerows(sampler.rows)
    return path


def export_bundle(
    observer: object,
    out_dir: Path,
    config: Optional["SimulationConfig"] = None,
    results: Optional["Results"] = None,
) -> Dict[str, Path]:
    """Write every export of one traced run into ``out_dir``.

    ``observer`` is a :class:`~repro.obs.session.Observer`; the directory
    is created if needed.  Returns ``{"jsonl": ..., "chrome": ...,
    "series": ..., "manifest": ...}`` (``series`` only when the observer
    sampled).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The tracer's read-only view: each writer streams it, so no list of
    # every TraceEvent is built.
    events = observer.tracer.events  # type: ignore[attr-defined]
    sampler = observer.sampler  # type: ignore[attr-defined]
    paths = {
        "jsonl": write_jsonl(events, out_dir / "trace.jsonl"),
        "chrome": write_chrome_trace(events, out_dir / "trace.chrome.json"),
    }
    if sampler is not None:
        paths["series"] = write_series_csv(sampler, out_dir / "series.csv")
    manifest: Dict[str, object] = {"events": len(events)}
    if config is not None:
        manifest["config"] = config.as_dict()
    if results is not None:
        manifest["results"] = results.as_dict()
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
    paths["manifest"] = manifest_path
    return paths
