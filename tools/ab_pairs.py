#!/usr/bin/env python3
"""Alternating perfbench pairs: is one checkout faster than another?

Usage::

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD

``PARENT_DIR`` and ``CHANGE_DIR`` are two checkouts of this repository
(each with its own ``perfbench/`` and ``src/``); ``WORKLOAD`` names a
``perfbench`` workload.  For each seed of :data:`SEEDS` the tool runs, in
each checkout, the per-workload command that ``BENCHMARK.json`` declares::

    python3 -m perfbench --workload W --seconds 15 --trace 0 --seed S

and reads ``run_cpu_s`` and ``peak_rss_mb`` from the JSON object it prints
last.  The two runs of a pair alternate which checkout goes first, so a
drift of the host's speed falls on both sides.  A ``--seconds`` run
writes no report, so neither checkout's ``perfbench/results/`` is
touched.  It prints no result digest either, so each pair also runs one
untraced ``perfbench.child`` per checkout at the pair's seed and compares
their digests: a pair whose digests differ did not time the same
simulation.

Per pair it prints both metrics of both sides, their ratios and whether
the digests are equal; then, per metric, the median change/parent ratio,
how many pairs the change won, and the parent's interquartile range next
to the distance between the two medians.  One pair cannot resolve +-5%
on a shared host; ten can.  Exit 1 when a run fails or a digest differs.
Ten pairs take about seven minutes.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: One pair per seed.
SEEDS = range(9001, 9011)
#: The run length ``BENCHMARK.json`` sets (``run_seconds``).
SECONDS = 15
#: The end-to-end metrics compared, all lower-is-better.
METRICS = ("run_cpu_s", "peak_rss_mb")


def _env(checkout: Path) -> dict:
    """perfbench's child environment, for a child started by hand."""
    env = dict(os.environ)
    source = str(checkout / "src")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{source}{os.pathsep}{inherited}" if inherited else source
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_perfbench(checkout: Path, workload: str, seed: int) -> dict:
    """One ``--seconds`` run in ``checkout``: its end-to-end metric values."""
    done = subprocess.run(
        [
            sys.executable, "-m", "perfbench",
            "--workload", workload,
            "--seconds", str(SECONDS),
            "--trace", "0",
            "--seed", str(seed),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout}: {result['failed']} failed run(s)")
    return {name: cell["value"] for name, cell in result["metrics"].items()}


def run_digest(checkout: Path, workload: str, seed: int) -> str:
    """The result digest of one untraced perfbench child in ``checkout``."""
    spec = {"workload": workload, "seed": seed, "traced": False, "smoke": False}
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.child", json.dumps(spec)],
        cwd=checkout,
        env=_env(checkout),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["digest"]


def summarize(pairs):
    """Per metric of :data:`METRICS`: how the change compares over ``pairs``.

    ``pairs`` is a list of ``(parent, change)`` metric mappings.  Returns
    ``{metric: {"median_ratio", "wins", "pairs", "parent_median",
    "change_median", "parent_iqr"}}``: ``wins`` counts the pairs whose
    change value is lower, and ``parent_iqr`` is the spread the distance
    between the two medians has to beat.
    """
    summary = {}
    for metric in METRICS:
        parent = [before[metric] for before, _ in pairs]
        change = [after[metric] for _, after in pairs]
        ratios = [after / before for before, after in zip(parent, change)]
        if len(parent) > 1:
            low, _, high = statistics.quantiles(parent, n=4)
        else:
            low = high = parent[0]
        summary[metric] = {
            "median_ratio": statistics.median(ratios),
            "wins": sum(after < before for before, after in zip(parent, change)),
            "pairs": len(pairs),
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": high - low,
        }
    return summary


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent_dir, change_dir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload = argv[2]
    pairs, all_same = [], True
    print(
        f"{'seed':>5} {'first':>6}  "
        + "  ".join(f"{m + ' P':>13} {m + ' C':>13} {'C/P':>6}" for m in METRICS)
        + "  digests"
    )
    for index, seed in enumerate(SEEDS):
        order = [("parent", parent_dir), ("change", change_dir)]
        if index % 2:
            order.reverse()
        runs = {side: run_perfbench(path, workload, seed) for side, path in order}
        same = run_digest(parent_dir, workload, seed) == run_digest(
            change_dir, workload, seed
        )
        all_same &= same
        pairs.append((runs["parent"], runs["change"]))
        cells = "  ".join(
            f"{runs['parent'][m]:13.4f} {runs['change'][m]:13.4f} "
            f"{runs['change'][m] / runs['parent'][m]:6.3f}"
            for m in METRICS
        )
        print(
            f"{seed:>5} {order[0][0]:>6}  {cells}  {'same' if same else 'DIFFERENT'}",
            flush=True,
        )
    for metric, row in summarize(pairs).items():
        print(
            f"{metric}: median C/P {row['median_ratio']:.4f}, change won "
            f"{row['wins']}/{row['pairs']}, medians {row['parent_median']:.4f} -> "
            f"{row['change_median']:.4f} (distance "
            f"{abs(row['change_median'] - row['parent_median']):.4f}, parent IQR "
            f"{row['parent_iqr']:.4f})"
        )
    print("digests: same" if all_same else "digests: DIFFERENT")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
