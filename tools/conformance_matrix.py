#!/usr/bin/env python3
"""Run the conformance battery over every policy (CI gate).

Usage::

    PYTHONPATH=src python tools/conformance_matrix.py [--report FILE]
    PYTHONPATH=src python tools/conformance_matrix.py --namespace replacement
    PYTHONPATH=src python tools/conformance_matrix.py --key lru-min

Iterates ``conformance_keys()`` — so a policy added after this tool
shipped is still covered with no edits — runs the battery
(:mod:`repro.policies.conformance`) per ``(namespace, key)``, prints one
status line each, and exits 1 when any entry fails (2 when the filters
match no entry).  ``--report`` writes the full per-entry check map as
JSON for the CI artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.policies.conformance import (
    ConformanceReport,
    conformance_keys,
    run_conformance,
)
from repro.policies.registry import NAMESPACES

__all__ = ["main", "run_matrix"]


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
        choices=NAMESPACES,
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
