"""``python3 perfbench/compare.py OLD.json NEW.json``: did anything get worse?

One row per workload x end-to-end metric of two ``python3 -m perfbench``
reports taken with the same ``--seed`` and ``--repeats``, judged by the
bounds in BENCHMARK.json:

* ``ok``          NEW is no worse than OLD by more than the bound;
* ``REGRESSION``  it is worse by more than the bound;
* ``unresolved``  the run-to-run spread is wider than the bound, so the
  bound cannot be checked - unless NEW reads better than OLD on every
  seed, which is ``ok``.

The samples of a report are one per seed of its panel, so their own
spread is mostly the seeds'.  The run-to-run spread is taken from the
seed-by-seed ratios NEW/OLD instead, in which the seeds cancel: their
quartile distance over their median, over the square root of their
number, because the values compared are medians over that many seeds.

Exits 1 on a regression or when NEW failed a larger share of its runs,
2 when the two reports are not comparable.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def judge(old: dict, new: dict, better: str, bound: float):
    """(status, worsening as a share of OLD, run-to-run spread) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (new["value"] - old["value"]) / old["value"]
    ratios = [after / before for before, after in zip(old["samples"], new["samples"])]
    spread = 0.0
    if len(ratios) > 1:
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        spread = (q3 - q1) / median / math.sqrt(len(ratios))
    if spread > bound:
        clear_win = all(sign * (ratio - 1.0) < 0 for ratio in ratios)
        return ("ok" if clear_win else "unresolved"), worsening, spread
    return ("REGRESSION" if worsening > bound else "ok"), worsening, spread


def compare(old: dict, new: dict, spec: dict):
    """Rows of (workload, metric, old, new, unit, worsening, spread, bound, status)."""
    rows = []
    for name in (workload["name"] for workload in spec["workloads"]):
        for metric in spec["end_to_end"]:
            before = old["workloads"][name]["end_to_end"][metric["name"]]
            after = new["workloads"][name]["end_to_end"][metric["name"]]
            status, worsening, spread = judge(before, after, metric["better"], metric["bound"])
            rows.append(
                (
                    name,
                    metric["name"],
                    before["value"],
                    after["value"],
                    metric["unit"],
                    worsening,
                    spread,
                    metric["bound"],
                    status,
                )
            )
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in args)
    for key in ("seed", "repeats", "smoke"):
        if old[key] != new[key]:
            print(f"not comparable: {key} is {old[key]} in OLD, {new[key]} in NEW", file=sys.stderr)
            return 2
    rows = compare(old, new, json.loads(BENCHMARK.read_text()))
    print(
        f"{'workload':12s} {'metric':12s} {'old':>12s} {'new':>12s} {'unit':12s}"
        f" {'worse by':>9s} {'spread':>10s} {'bound':>6s}  status"
    )
    for name, metric, before, after, unit, worsening, spread, bound, status in rows:
        print(
            f"{name:12s} {metric:12s} {before:12.5g} {after:12.5g} {unit:12s}"
            f" {worsening:+9.1%} {spread:10.1%} {bound:6.0%}  {status}"
        )
    old_failed = old["failed"] / old["attempted"]
    new_failed = new["failed"] / new["attempted"]
    print(f"failed share: old {old_failed:.3f} ({old['failed']}/{old['attempted']}),"
          f" new {new_failed:.3f} ({new['failed']}/{new['attempted']})")
    statuses = [row[-1] for row in rows]
    print(
        f"{statuses.count('REGRESSION')} regressions, "
        f"{statuses.count('unresolved')} unresolved, {statuses.count('ok')} ok"
    )
    return 1 if "REGRESSION" in statuses or new_failed > old_failed else 0


if __name__ == "__main__":
    sys.exit(main())
