"""Golden-trace harness: record canonical runs, replay them, diff drift.

The simulator's headline guarantee is bit-identical deterministic runs:
the same :class:`~repro.core.config.SimulationConfig` must produce the
same :class:`~repro.core.metrics.Results` on every machine and after
every refactor that does not *intend* to change semantics.  This module
turns that guarantee into committed fixtures:

* :data:`GOLDEN_CASES` — a small canon of configurations (one per
  scheme, plus a faulty and a failure-aware GroCoCa run) chosen to
  exercise every protocol layer in a few hundred milliseconds each;
* :func:`record` — simulate each case and write one JSON fixture holding
  the run's two serialised forms: ``SimulationConfig.as_dict()`` and
  :func:`~repro.core.metrics.results_to_dict` (every ``Results`` counter
  plus the :class:`~repro.sim.profile.RunProfile` work counters).  Nothing
  else is stored, so re-recording unchanged behaviour rewrites no byte;
* :func:`verify` — re-simulate every committed fixture and return a
  **field-level diff**, so an unintended semantic change fails CI with
  the exact counters that moved, not just "results differ".

Fixtures are plain JSON (floats survive a JSON round-trip exactly in
Python), live in ``tests/golden/`` and are refreshed with
``python -m repro check golden record`` — see ``docs/TESTING.md``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.config import CachingScheme, SimulationConfig, canonical_config
from repro.core.metrics import results_to_dict
from repro.core.simulation import run_simulation
from repro.net.faults import CrashFaults, FaultPlan, LinkFaults

__all__ = [
    "FIXTURE_FORMAT",
    "GOLDEN_CASES",
    "default_fixtures_dir",
    "diff_fixture",
    "fixture_for",
    "record",
    "verify",
]

#: Bump when the fixture file layout (not the simulator) changes.
FIXTURE_FORMAT = 1

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


def default_fixtures_dir() -> Path:
    """Where fixtures live when no directory is given (``tests/golden``)."""
    return Path("tests") / "golden"


def fixture_for(name: str, config: SimulationConfig) -> Dict[str, object]:
    """Run one case and build its fixture payload."""
    results = run_simulation(config)
    return {
        "format": FIXTURE_FORMAT,
        "name": name,
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
    :meth:`SimulationConfig.from_dict` and must round-trip to exactly the
    stored dict, so a fixture names every config field and the round-trip
    also exercises config serialisation.  Raises ``FileNotFoundError``
    when the fixture directory holds no fixtures at all.
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
        # Expected is what the config round-trips to: a field the fixture
        # lacks reads "config.<name>: missing".
        round_trip = json.loads(canonical_config(config))
        diffs = diff_fixture(round_trip, fixture["config"], prefix="config")
        replayed = results_to_dict(run_simulation(config))
        diffs.extend(diff_fixture(fixture["results"], replayed))
        report[name] = diffs
    return report
