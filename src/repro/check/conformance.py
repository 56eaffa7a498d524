"""The shared conformance battery behind both plugin registries.

One small simulated configuration per registered key, checked four ways:

* **invariants** — a monitored run raises no violations;
* **smoke** — that run completes and its outcome counts sum to the total;
* **seed stability** — the same config run twice is bit-identical
  (:func:`~repro.check.golden.results_to_dict` compared field by field);
* **round trip** — the config survives ``as_dict``/``from_dict`` and the
  rebuilt config resolves to the same registry keys.

A registry adds checks of its own as ``extra_checks`` (workloads add
``constant_memory``).  ``repro.policies.conformance`` and
``repro.workloads.conformance`` supply the keys and a config that
genuinely exercises each.

Imported explicitly, never from ``repro.check.__init__``: it pulls in
the simulation layer, which imports the config, which imports the
registries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.check import run_checked
from repro.check.golden import results_to_dict
from repro.core.config import SimulationConfig
from repro.core.simulation import run_simulation

__all__ = ["BASE_CONFIG", "ConformanceReport", "ExtraCheck", "run_battery"]

#: The battery's scale: tight caches and a narrow access range force
#: admission and replacement decisions, a non-zero update rate gives
#: TTL-aware policies finite expiries, and there is enough simulated time
#: that non-stationary workloads cross several periods/spikes/epochs.
BASE_CONFIG: Dict[str, Any] = dict(
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
    """Outcome of one registered entry's battery run."""

    namespace: str
    key: str
    passed: bool = True
    checks: Dict[str, bool] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    hit_ratio: float = 0.0
    #: Numbers an extra check measured (e.g. ``memory_delta``).
    measurements: Dict[str, int] = field(default_factory=dict)

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
            **self.measurements,
        }


#: A registry-specific check: records itself through ``report.check``.
ExtraCheck = Callable[[SimulationConfig, ConformanceReport], None]


def run_battery(
    namespace: str,
    key: str,
    config: SimulationConfig,
    resolved_keys: Callable[[SimulationConfig], object],
    extra_checks: Sequence[ExtraCheck] = (),
) -> ConformanceReport:
    """Run the battery for one registered entry under ``config``.

    ``resolved_keys`` maps a config to the registry keys it resolves to
    (the round-trip check compares it across ``as_dict``/``from_dict``).
    """
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
        rebuilt == config and resolved_keys(rebuilt) == resolved_keys(config),
        "config or resolved keys changed across as_dict/from_dict",
    )

    for extra in extra_checks:
        extra(config, report)
    return report
