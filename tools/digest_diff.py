#!/usr/bin/env python3
"""Did two perfbench reports simulate the same thing?

``python tools/digest_diff.py OLD.json NEW.json`` reads two
``python3 -m perfbench --out`` reports and prints one row per workload x
seed (``same`` / ``DIFFERENT`` result digest) plus every ``model.*``,
``*.calls`` and ``sim.kernel.events`` value of the traced runs that
differs.  Exit 1 on any difference, or when the two panels (workloads and
seeds) do not match; ``perfbench/compare.py`` judges the timings, this
judges the behaviour.
"""

import json
import sys


def _pinned(metric):
    return (
        metric.startswith("model.")
        or metric.endswith(".calls")
        or metric == "sim.kernel.events"
    )


def diff(old, new):
    """(report lines, any difference?) for two parsed perfbench reports."""
    lines, differs = [], False
    names = sorted(old["workloads"]), sorted(new["workloads"])
    if names[0] != names[1]:
        return [f"workloads differ: {names[0]} vs {names[1]}"], True
    for name, before in old["workloads"].items():
        after = new["workloads"][name]
        seeds = sorted(before["digests"]), sorted(after["digests"])
        if seeds[0] != seeds[1]:
            lines.append(f"{name:<12} seeds differ: {seeds[0]} vs {seeds[1]}")
            differs = True
            continue
        for seed, digest in before["digests"].items():
            same = after["digests"][seed] == digest
            differs |= not same
            lines.append(f"{name:<12} seed {seed:<5} {'same' if same else 'DIFFERENT'}")
        for metric, cell in before["per_layer"].items():
            value = after["per_layer"].get(metric, {}).get("value")
            if _pinned(metric) and value != cell["value"]:
                differs = True
                lines.append(f"{name:<12} {metric}: {cell['value']} -> {value}")
    return lines, differs


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    lines, differs = diff(*reports)
    print("\n".join(lines))
    print("DIFFERENT" if differs else "same behaviour")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
