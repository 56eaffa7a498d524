"""``python3 -m perfbench``: run the workloads, print every metric, check outputs.

Two ways in, one measuring loop:

* ``--workload NAME --seconds S --trace 0|1`` (the driver's form) measures
  one workload for S seconds and prints, as the last line, one JSON object
  with ``correct``, ``attempted``, ``failed`` and ``metrics`` - the
  end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
* without ``--seconds`` it runs ``--repeats`` untraced children of every
  workload (or the one named) round-robin plus one traced child each,
  prints both metric sets and writes the full report to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from perfbench.runner import ROOT, environment, load_spec, measure, summarise
from perfbench.workloads import WORKLOADS, config_overrides


def _print_metrics(name: str, metrics: dict) -> None:
    for metric, entry in metrics.items():
        print(f"{name:12s} {metric:36s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny configs, for the tests")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench/results/latest.json")
    args = parser.parse_args(argv)
    if args.seconds is not None and args.workload is None:
        parser.error("--seconds needs --workload")

    spec = load_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    where = environment()
    records = measure(
        names,
        args.seed,
        repeats=None if args.seconds is not None else args.repeats,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
    )
    where["numpy"] = next((r["numpy"] for r in records if "numpy" in r), "unknown")
    # Baselines that rode along are summarised too, so their checks count.
    summaries = {
        name: summarise(name, records, spec)
        for name in dict.fromkeys(r["workload"] for r in records)
    }
    for name, summary in summaries.items():
        for message in summary["failures"]:
            print(f"{name}: FAILED {message}", file=sys.stderr)
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())

    if args.seconds is not None:
        layer = "per_layer" if args.trace else "end_to_end"
        metrics = summaries[args.workload].get(layer)
        if metrics is None:
            print(f"perfbench: no child of {args.workload} produced {layer} metrics", file=sys.stderr)
            return 1
        _print_metrics(args.workload, metrics)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": entry["value"], "unit": entry["unit"]}
                for name, entry in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0

    for name in names:
        _print_metrics(name, summaries[name].get("end_to_end", {}))
    for name in names:
        _print_metrics(name, summaries[name].get("per_layer", {}))
    whys = {workload["name"]: workload["why"] for workload in spec["workloads"]}
    report = {
        "environment": where,
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "attempted": attempted,
        "failed": failed,
        "workloads": {
            name: {
                "why": whys[name],
                "config": config_overrides(name, args.seed, args.smoke),
                **summaries[name],
            }
            for name in names
        },
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{attempted} runs, {failed} failed; report written to {args.out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
