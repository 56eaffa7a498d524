#!/usr/bin/env python3
"""CI fault-matrix smoke: the failure-aware retrieve layer under fire.

Usage::

    PYTHONPATH=src REPRO_PROFILE=quick python tools/fault_smoke.py

Two gates, both fast at the quick profile:

1. **Monitored adaptive runs** — one GroCoCa run per adaptive row of the
   ``fig-policy`` figure at ``p2p_loss=0.25``, each with the
   :class:`~repro.check.monitor.InvariantMonitor` attached in ``collect``
   mode and an :class:`~repro.obs.Observer` recording the trace.  Any
   invariant violation — including the breaker-discipline and
   hedge-conservation checks — fails the smoke, and so does any trace
   contract problem (``check_trace`` of ``tools/trace_contract.py``: every
   counted protocol event of ``repro.core.metrics.COUNTED_EVENTS``
   reconciles with ``Results``).
2. **Micro policy sweep** — the same figure run through :func:`run_sweep` at
   two points with ``salvage=True``; any crashed or missing run fails the
   smoke (a fault plan must degrade a run, never kill it).

Exit status 0 on success; 1 with a diagnostic on the first failure.
"""

from __future__ import annotations

import sys

from repro.check.monitor import InvariantMonitor
from repro.core.simulation import run_simulation
from repro.experiments.parallel import RunFailure
from repro.experiments.runner import run_sweep
from repro.experiments.sweeps import FIGURES
from repro.obs import Observer
from trace_contract import check_trace

#: The figure both gates drive: scoring policy x P2P fault rate.
FIG_POLICY = FIGURES["fig-policy"]

#: P2P loss rate of the monitored runs — hostile enough to trip breakers.
SMOKE_LOSS = 0.25

#: Sweep points of the micro matrix (clean + lossy).
SWEEP_VALUES = (0.0, SMOKE_LOSS)


def check_monitored_runs() -> int:
    """Every adaptive policy survives a monitored run under faults."""
    failures = 0
    for policy in sorted(FIG_POLICY.rows):
        if policy == "arrival":
            continue  # the legacy path is golden-gated elsewhere
        monitor = InvariantMonitor(mode="collect")
        observer = Observer()
        results = run_simulation(
            FIG_POLICY.config(SMOKE_LOSS, policy), monitor=monitor, observer=observer
        )
        report = monitor.report()
        status = "ok" if report.ok else "VIOLATIONS"
        contract = check_trace(observer.tracer.events, results, results.profile)
        print(
            f"  {policy:>14}: {status}  "
            f"lat={results.access_latency:.4f}s  "
            f"trips={results.health.get('breaker_trip', 0)}  "
            f"hedges={results.health.get('hedge', 0)}  "
            f"contract {'ok' if not contract else contract[0]}"
        )
        if not report.ok:
            failures += 1
            for violation in report.violations:
                print(f"    {violation}")
        if contract:
            failures += 1
    return failures


def check_policy_sweep() -> int:
    """The micro policy matrix completes with no crashed runs."""
    failures: list[RunFailure] = []
    table = run_sweep(
        FIG_POLICY,
        values=SWEEP_VALUES,
        attempts=2,
        salvage=True,
        failures_out=failures,
    )
    problems = len(failures)
    for failure in failures:
        print(f"  CRASHED: {failure.label}: {failure.error}")
    for policy in table.rows:
        for value in table.values:
            if table.result(policy, value) is None:
                problems += 1
                print(f"  MISSING: policy={policy} p2p_loss={value}")
    if problems == 0:
        runs = len(table.rows) * len(table.values)
        print(f"  {runs} runs, all completed")
    return problems


def main() -> int:
    print("fault smoke: monitored adaptive runs")
    problems = check_monitored_runs()
    print("fault smoke: micro policy sweep")
    problems += check_policy_sweep()
    if problems:
        print(f"fault smoke: FAILED ({problems} problem(s))")
        return 1
    print("fault smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
