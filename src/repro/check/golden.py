"""Golden-trace harness: record canonical runs, replay them, diff drift.

The simulator's headline guarantee is bit-identical deterministic runs:
the same :class:`~repro.core.config.SimulationConfig` must produce the
same :class:`~repro.core.metrics.Results` on every machine and after
every refactor that does not *intend* to change semantics.  This module
turns that guarantee into committed fixtures:

* :data:`GOLDEN_CASES` — a small canon of configurations (one per
  scheme, plus a faulty GroCoCa run) chosen to exercise every protocol
  layer in a few hundred milliseconds each;
* :func:`record` — simulate each case and write one JSON fixture of its
  full :class:`Results` counters and :class:`~repro.sim.profile.RunProfile`
  work counters;
* :func:`verify` — re-simulate every committed fixture and return a
  **field-level diff**, so an unintended semantic change fails CI with
  the exact counters that moved, not just "results differ".

Fixtures are plain JSON (floats survive a JSON round-trip exactly in
Python), live in ``tests/golden/`` and are refreshed with
``python -m repro check golden record`` — see ``docs/TESTING.md``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Results
from repro.core.simulation import run_simulation
from repro.experiments.cache import canonical_config, default_code_version
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults

__all__ = [
    "FIXTURE_FORMAT",
    "GOLDEN_CASES",
    "GoldenMismatch",
    "default_fixtures_dir",
    "diff_fixture",
    "fixture_for",
    "fixture_results",
    "record",
    "results_to_dict",
    "verify",
]

#: Bump when the fixture file layout (not the simulator) changes.
FIXTURE_FORMAT = 1

#: Profile-counter name prefixes excluded from the bit-identity diff.
#: These counters describe how the simulator computed the outcome (position
#: cache reuse, event-queue internals), not the simulated outcome itself, so
#: a perf refactor may legitimately move them while every semantic counter
#: stays frozen.  They are stripped from *both* sides of the comparison, so
#: fixtures recorded before a counter existed (or before one was demoted to
#: implementation detail) keep verifying without a re-record.
PERF_COUNTER_PREFIXES: Tuple[str, ...] = ("snapshot_", "kernel_")


def _semantic_counters(counters: Dict[str, object]) -> Dict[str, object]:
    """Drop performance-implementation counters from a profile dict."""
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(PERF_COUNTER_PREFIXES)
    }

#: Shared base of every golden case: small enough that one case runs in
#: well under a second, large enough that caches fill, searches fan out
#: over multiple hops and TCGs actually form.
_BASE = dict(
    n_clients=8,
    n_data=200,
    access_range=40,
    cache_size=8,
    group_size=4,
    measure_requests=8,
    warmup_min_time=30.0,
    warmup_max_time=60.0,
    ndp_enabled=False,
    seed=101,
)

#: A moderate all-layer fault plan for the faulty canonical run.
_FAULTY_PLAN = FaultPlan(
    p2p=LinkFaults(loss=0.1, burst_loss=0.3, burst_on=0.05, burst_off=0.5),
    uplink=LinkFaults(loss=0.05),
    downlink=LinkFaults(loss=0.05),
    crash=CrashFaults(rate=0.001, down_min=2.0, down_max=6.0),
)

GOLDEN_CASES: Dict[str, SimulationConfig] = {
    "lc-small": SimulationConfig(scheme=CachingScheme.LC, **_BASE),
    "cc-small": SimulationConfig(scheme=CachingScheme.CC, **_BASE),
    "gc-small": SimulationConfig(
        scheme=CachingScheme.GC, **{**_BASE, "ndp_enabled": True}
    ),
    "gc-faults": SimulationConfig(
        scheme=CachingScheme.GC,
        faults=_FAULTY_PLAN,
        search_retry_limit=1,
        retrieve_retry_limit=1,
        **_BASE,
    ),
    # The health layer's retrieve: at this seed it hedges, trips, probes and fails over.
    "gc-health": SimulationConfig(
        scheme=CachingScheme.GC,
        faults=FaultPlan(p2p=LinkFaults(loss=0.1), crash=CrashFaults(rate=0.05)),
        peer_policy="latency-aware",
        breaker_threshold=2,
        hedge_quantile=0.5,
        crash_failover=True,
        retrieve_retry_limit=2,
        **{**_BASE, "seed": 118},
    ),
}


class GoldenMismatch(AssertionError):
    """A replayed run drifted from its committed fixture."""

    def __init__(self, name: str, diffs: List[str]) -> None:
        self.name = name
        self.diffs = list(diffs)
        listing = "\n  ".join(self.diffs)
        super().__init__(
            f"golden trace {name!r} drifted in {len(self.diffs)} field(s):\n"
            f"  {listing}"
        )


def default_fixtures_dir() -> Path:
    """Where fixtures live when no directory is given (``tests/golden``)."""
    return Path("tests") / "golden"


def results_to_dict(results: Results) -> Dict[str, object]:
    """JSON-ready dict of every deterministic :class:`Results` field.

    The ``profile`` field is replaced by its deterministic core — kernel
    events processed plus the per-subsystem work counters — because
    wall-clock timing legitimately varies between runs.  Counters matching
    :data:`PERF_COUNTER_PREFIXES` are implementation detail and excluded.
    """
    payload = dataclasses.asdict(results)
    payload.pop("profile", None)
    if not payload.get("health"):
        # The failure-aware retrieve counters exist only when the health
        # layer is on; dropping the empty dict keeps pre-health fixtures
        # verifying without a re-record.
        payload.pop("health", None)
    profile = results.profile
    if profile is not None:
        payload["profile"] = {
            "events": profile.events,
            "counters": dict(sorted(_semantic_counters(profile.counters).items())),
        }
    # Normalise tuples (latency_by_outcome values) the way JSON will.
    return json.loads(json.dumps(payload, sort_keys=True))


def fixture_results(fixture: Dict[str, object]) -> Dict[str, object]:
    """A fixture's expected results, normalised for comparison.

    Strips the implementation-detail counters
    (:data:`PERF_COUNTER_PREFIXES`) from the stored profile so fixtures
    recorded before a counter existed — or before one was demoted to
    implementation detail — compare cleanly against
    :func:`results_to_dict` output without a re-record.
    """
    expected = dict(fixture["results"])  # type: ignore[arg-type]
    if not expected.get("health"):
        expected.pop("health", None)
    profile = expected.get("profile")
    if isinstance(profile, dict) and isinstance(profile.get("counters"), dict):
        expected["profile"] = {
            **profile,
            "counters": _semantic_counters(profile["counters"]),
        }
    return expected


def fixture_for(name: str, config: SimulationConfig) -> Dict[str, object]:
    """Run one case and build its fixture payload."""
    results = run_simulation(config)
    return {
        "format": FIXTURE_FORMAT,
        "name": name,
        "code_version": default_code_version(),
        "config": config.as_dict(),
        "results": results_to_dict(results),
    }


def diff_fixture(
    expected: Dict[str, object], actual: Dict[str, object], prefix: str = "results"
) -> List[str]:
    """Field-level diff of two fixture ``results`` payloads.

    Returns human-readable ``path: expected X, got Y`` lines; empty when
    the payloads agree exactly.
    """
    diffs: List[str] = []
    keys = sorted(set(expected) | set(actual))
    for key in keys:
        path = f"{prefix}.{key}"
        if key not in expected:
            diffs.append(f"{path}: unexpected new field {actual[key]!r}")
            continue
        if key not in actual:
            diffs.append(f"{path}: missing (expected {expected[key]!r})")
            continue
        left, right = expected[key], actual[key]
        if isinstance(left, dict) and isinstance(right, dict):
            diffs.extend(diff_fixture(left, right, prefix=path))
        elif left != right:
            diffs.append(f"{path}: expected {left!r}, got {right!r}")
    return diffs


def record(
    directory: Optional[Union[str, Path]] = None,
    cases: Optional[Dict[str, SimulationConfig]] = None,
) -> List[Path]:
    """Simulate every golden case and (re)write its fixture file."""
    directory = Path(directory) if directory is not None else default_fixtures_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name, config in (cases or GOLDEN_CASES).items():
        path = directory / f"{name}.json"
        with path.open("w", encoding="utf-8") as handle:
            json.dump(fixture_for(name, config), handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written


def verify(
    directory: Optional[Union[str, Path]] = None,
) -> Dict[str, List[str]]:
    """Replay every committed fixture; return per-case field-level diffs.

    The stored config is reconstructed through
    :meth:`SimulationConfig.from_dict`, so the round-trip also exercises
    config serialisation.  Raises ``FileNotFoundError`` when the fixture
    directory holds no fixtures at all.
    """
    directory = Path(directory) if directory is not None else default_fixtures_dir()
    paths = sorted(directory.glob("*.json"))
    if not paths:
        raise FileNotFoundError(
            f"no golden fixtures in {directory}; run "
            "'python -m repro check golden record' first"
        )
    report: Dict[str, List[str]] = {}
    for path in paths:
        with path.open("r", encoding="utf-8") as handle:
            fixture = json.load(handle)
        name = fixture.get("name", path.stem)
        config = SimulationConfig.from_dict(fixture["config"])
        diffs: List[str] = []
        # Compare only the keys the fixture stored: config fields added
        # after a fixture was recorded verify at their dataclass defaults,
        # so new knobs don't force a re-record.
        stored: Dict[str, object] = fixture["config"]
        round_trip = json.loads(canonical_config(config))
        for key in sorted(stored):
            if round_trip.get(key) != stored[key]:
                diffs.append(
                    f"config.{key}: stored {stored[key]!r}, "
                    f"round-tripped {round_trip.get(key)!r}"
                )
        expected = fixture_results(fixture)
        replayed = results_to_dict(run_simulation(config))
        diffs.extend(diff_fixture(expected, replayed))
        report[name] = diffs
    return report
