#!/usr/bin/env python3
"""Run the conformance battery over every policy (CI gate).

Usage::

    PYTHONPATH=src python tools/conformance_matrix.py [--report FILE]
    PYTHONPATH=src python tools/conformance_matrix.py --namespace replacement
    PYTHONPATH=src python tools/conformance_matrix.py --key lru-min

The battery runs one small simulated configuration per ``(namespace,
key)`` pair, one that genuinely exercises it, and checks it four ways:

* **invariants** — a monitored run raises no violations;
* **smoke** — that run completes and its outcome counts sum to the total;
* **seed stability** — the same config run twice is bit-identical
  (:func:`~repro.core.metrics.results_to_dict` compared field by field);
* **round trip** — the config survives ``as_dict``/``from_dict`` and the
  rebuilt config resolves to the same policy keys.

The matrix iterates :func:`conformance_keys` — so a policy added as one
table row is covered with no edits here or in
``tests/test_policy_conformance.py`` — runs the battery per entry, prints
one status line each, and exits 1 when any entry fails (2 when the
filters match no entry).  ``--report`` writes the full per-entry check
map as JSON for the CI artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.check import run_checked
from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import results_to_dict
from repro.core.simulation import run_simulation
from repro.policies import registry
from repro.policies.factory import resolved_policy_keys

__all__ = [
    "ConformanceReport",
    "conformance_config",
    "conformance_keys",
    "main",
    "run_conformance",
    "run_matrix",
]

#: The battery's scale: tight caches and a narrow access range force
#: admission and replacement decisions, and a non-zero update rate gives
#: TTL-aware policies finite expiries.
_BASE_CONFIG: Dict[str, Any] = dict(
    n_clients=6,
    n_data=120,
    access_range=30,
    cache_size=6,
    group_size=3,
    data_update_rate=0.2,
    measure_requests=5,
    warmup_min_time=20.0,
    warmup_max_time=40.0,
    max_sim_time=400.0,
    ndp_enabled=False,
    seed=11,
)


@dataclass
class ConformanceReport:
    """Outcome of one policy's battery run."""

    namespace: str
    key: str
    passed: bool = True
    checks: Dict[str, bool] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    hit_ratio: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """Record one check; a failed one fails the report."""
        self.checks[name] = bool(ok)
        if not ok:
            self.passed = False
            self.failures.append(f"{name}: {detail}" if detail else name)

    def as_dict(self) -> Dict[str, object]:
        return {
            "namespace": self.namespace,
            "key": self.key,
            "passed": self.passed,
            "checks": dict(self.checks),
            "failures": list(self.failures),
            "hit_ratio": self.hit_ratio,
        }


def conformance_keys() -> List[Tuple[str, str]]:
    """Every ``(namespace, key)`` pair the battery must cover."""
    return [
        (namespace, key)
        for namespace in registry.NAMESPACES
        for key in registry.available(namespace)
    ]


def conformance_config(namespace: str, key: str) -> SimulationConfig:
    """A small config that genuinely exercises ``(namespace, key)``.

    GroCoCa hosts the two cache-management namespaces (the ``grococa``
    keys need its TCGs and signatures); COCA hosts ``peer-scoring``.
    """
    if namespace == "admission":
        return SimulationConfig(
            scheme=CachingScheme.GC, admission_policy=key, **_BASE_CONFIG
        )
    if namespace == "replacement":
        return SimulationConfig(
            scheme=CachingScheme.GC, replacement_policy=key, **_BASE_CONFIG
        )
    if namespace == "peer-scoring":
        # A non-default peer policy flips health_enabled on by itself;
        # for "arrival" the breaker does it so the tracker is really built.
        overrides = {"peer_policy": key}
        if key == "arrival":
            overrides["breaker_threshold"] = 3
        return SimulationConfig(scheme=CachingScheme.CC, **_BASE_CONFIG, **overrides)
    raise KeyError(
        f"unknown policy namespace {namespace!r}; "
        f"available: {', '.join(registry.NAMESPACES)}"
    )


def run_conformance(namespace: str, key: str) -> ConformanceReport:
    """Run the full battery for one policy."""
    config = conformance_config(namespace, key)
    report = ConformanceReport(namespace=namespace, key=key)

    monitored, monitor_report = run_checked(config, mode="collect")
    violations = monitor_report.violations
    report.check(
        "invariants",
        not violations,
        "; ".join(str(v) for v in violations[:3]),
    )
    total = monitored.requests
    outcome_sum = (
        monitored.local_hits
        + monitored.global_hits
        + monitored.server_requests
        + monitored.failures
    )
    report.check(
        "smoke",
        total > 0 and outcome_sum == total,
        f"total={total} outcome_sum={outcome_sum}",
    )
    report.hit_ratio = monitored.lch_ratio + monitored.gch_ratio

    first = results_to_dict(run_simulation(config))
    second = results_to_dict(run_simulation(config))
    drift = [name for name in first if first[name] != second.get(name)]
    report.check("seed_stable", first == second, f"drifting fields: {drift[:5]}")

    rebuilt = SimulationConfig.from_dict(config.as_dict())
    report.check(
        "round_trip",
        rebuilt == config
        and resolved_policy_keys(rebuilt) == resolved_policy_keys(config),
        "config or resolved keys changed across as_dict/from_dict",
    )
    return report


def run_matrix(
    namespace: Optional[str] = None, key: Optional[str] = None
) -> List[ConformanceReport]:
    """Battery reports for every entry passing the two filters."""
    reports = []
    for row_namespace, row_key in conformance_keys():
        if namespace is not None and row_namespace != namespace:
            continue
        if key is not None and row_key != key:
            continue
        report = run_conformance(row_namespace, row_key)
        status = "ok" if report.passed else "FAIL"
        print(
            f"  {status:<4} {row_namespace + ':' + row_key:<30} "
            f"hit_ratio={report.hit_ratio:6.2f}  "
            f"checks={'/'.join(k for k, v in sorted(report.checks.items()) if v)}"
        )
        for failure in report.failures:
            print(f"       - {failure}")
        reports.append(report)
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--namespace",
        choices=registry.NAMESPACES,
        default=None,
        help="restrict the matrix to one namespace",
    )
    parser.add_argument(
        "--key",
        default=None,
        help="restrict the matrix to one policy key",
    )
    parser.add_argument(
        "--report",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the per-entry JSON report here",
    )
    args = parser.parse_args(argv)

    print("conformance matrix:")
    reports = run_matrix(args.namespace, args.key)
    if not reports:
        # An empty matrix would pass vacuously: a typo'd filter is an error.
        parser.error(
            f"no policy matches namespace={args.namespace!r} key={args.key!r}"
        )
    failed = [r for r in reports if not r.passed]

    if args.report is not None:
        args.report.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "entries": [r.as_dict() for r in reports],
            "total": len(reports),
            "failed": len(failed),
        }
        args.report.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {args.report}")

    print(
        f"{len(reports)} entries, {len(reports) - len(failed)} passed, "
        f"{len(failed)} failed"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
