#!/usr/bin/env python3
"""Run the conformance battery over every registered policy and workload (CI gate).

Usage::

    PYTHONPATH=src python tools/conformance_matrix.py [--report FILE]
    PYTHONPATH=src python tools/conformance_matrix.py --namespace replacement
    PYTHONPATH=src python tools/conformance_matrix.py --key flash-crowd

Iterates both registries' ``conformance_keys()`` — so an entry registered
after this tool shipped is still covered with no edits — runs the shared
battery (:mod:`repro.check.conformance`; workloads add the
constant-memory streaming check) per ``(namespace, key)``, prints one
status line each, and exits non-zero when any entry fails.  ``--report``
writes the full per-entry check map as JSON for the CI artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from repro.check.conformance import ConformanceReport
from repro.policies import conformance as policy_battery
from repro.policies.registry import NAMESPACES
from repro.workloads import conformance as workload_battery
from repro.workloads.registry import NAMESPACE as WORKLOAD_NAMESPACE

__all__ = ["main", "matrix_rows", "run_matrix"]

Row = Tuple[str, str, Callable[[], ConformanceReport]]


def matrix_rows() -> List[Row]:
    """``(namespace, key, run)`` for every registered entry of both registries."""
    rows: List[Row] = [
        (namespace, key, partial(policy_battery.run_conformance, namespace, key))
        for namespace, key in policy_battery.conformance_keys()
    ]
    rows += [
        (WORKLOAD_NAMESPACE, key, partial(workload_battery.run_conformance, key))
        for key in workload_battery.conformance_keys()
    ]
    return rows


def run_matrix(
    namespace: Optional[str] = None, key: Optional[str] = None
) -> List[ConformanceReport]:
    """Battery reports for every entry passing the two filters."""
    reports = []
    for row_namespace, row_key, run in matrix_rows():
        if namespace is not None and row_namespace != namespace:
            continue
        if key is not None and row_key != key:
            continue
        report = run()
        status = "ok" if report.passed else "FAIL"
        measured = "".join(
            f"  {name}={value}" for name, value in sorted(report.measurements.items())
        )
        print(
            f"  {status:<4} {row_namespace + ':' + row_key:<30} "
            f"hit_ratio={report.hit_ratio:6.2f}  "
            f"checks={'/'.join(k for k, v in sorted(report.checks.items()) if v)}"
            f"{measured}"
        )
        for failure in report.failures:
            print(f"       - {failure}")
        reports.append(report)
    return reports


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--namespace",
        choices=NAMESPACES + (WORKLOAD_NAMESPACE,),
        default=None,
        help="restrict the matrix to one namespace",
    )
    parser.add_argument(
        "--key",
        default=None,
        help="restrict the matrix to one registry key",
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
