"""Start the measured children, check them against each other, summarise.

Noise hygiene: one fresh child per (workload, repeat), never more than
one alive, workloads interleaved round-robin, BLAS threads pinned to one,
hash seed fixed.  The harness itself stays light (no numpy, no ``repro``)
because a child's ``ru_maxrss`` starts from its parent's.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.tracer import LAYERS
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: A child takes about two seconds; one that needs a minute is hung.
CHILD_TIMEOUT_S = 120


def load_spec() -> dict:
    """BENCHMARK.json: the metric names, units and bounds reported against."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    if "REPRO_KERNEL_QUEUE" in os.environ:
        raise SystemExit("perfbench measures the default kernel queue; unset REPRO_KERNEL_QUEUE")
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"perfbench: no simulator to measure at {source / 'repro'}")
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{source}{os.pathsep}{inherited}" if inherited else str(source)
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(env: dict, workload: str, seed: int, traced: bool, smoke: bool) -> dict:
    """One operation: a child run plus the checks it makes on itself."""
    spec = {"workload": workload, "seed": seed, "traced": traced, "smoke": smoke}
    record = {**spec, "failures": []}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.child", json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record["failures"].append(f"child exceeded {CHILD_TIMEOUT_S}s")
        return record
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no stderr"]
        record["failures"].append(f"child exited {done.returncode}: {tail[0]}")
        return record
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(names, seed, *, repeats=None, seconds=None, trace=True, smoke=False):
    """Run the children for workloads ``names``; return their records.

    Round ``i`` runs every workload untraced with seed ``seed + i``: how
    much work a run holds depends on the topology the seed draws (events
    per run vary by +-20% here), and the median over a panel of seeds is
    steadier than any one of them.  Traced children all use ``seed``, so
    that their call counts repeat and their digest can be checked against
    round 0.  With ``repeats`` the plan is that many rounds, then one
    traced child per workload.  With ``seconds`` a round is the untraced
    children plus, if ``trace``, the traced ones; rounds run until the
    time is used, and at least once.  A traced workload with a baseline
    brings that workload's untraced runs along.
    """
    env = child_env()
    baselines = [
        WORKLOADS[name]["baseline"]
        for name in names
        if trace and WORKLOADS[name].get("baseline") not in (None, *names)
    ]
    untraced = [*names, *baselines]
    traced = names if trace else []
    records = []

    def run_round(index, with_traced):
        records.extend(run_child(env, name, seed + index, False, smoke) for name in untraced)
        if with_traced:
            records.extend(run_child(env, name, seed, True, smoke) for name in traced)

    if seconds is None:
        for index in range(repeats):
            run_round(index, with_traced=index == repeats - 1)
    else:
        deadline = time.monotonic() + seconds
        for index in itertools.count():
            run_round(index, with_traced=True)
            if time.monotonic() >= deadline:
                break
    return records


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def summarise(name: str, records: list, spec: dict) -> dict:
    """Cross-check one workload's children and reduce them to metrics.

    Every value is the median over the untraced children, one per seed
    of the panel (times are calibrated, see calibration.py, so their
    noise is two-sided).  Samples and quartiles ride along so that
    compare.py can tell a regression from noise.
    """
    mine = [r for r in records if r["workload"] == name]
    plain = [r for r in mine if "digest" in r and not r["traced"]]
    digests = {r["seed"]: r["digest"] for r in plain}
    calls = None
    for record in (r for r in mine if "trace" in r):
        if record["digest"] != digests.get(record["seed"]):
            record["failures"].append("traced model.digest differs from the untraced run's")
        seen = {layer: row["calls"] for layer, row in record["trace"]["layers"].items()}
        if calls is None:
            calls = seen
        elif seen != calls:
            record["failures"].append("layer call counts differ from the first traced run")
    failed = [r for r in mine if r["failures"]]
    summary = {
        "digests": digests,
        "attempted": len(mine),
        "failed": len(failed),
        "failures": [message for r in failed for message in r["failures"]],
    }
    if not plain:
        return summary
    samples = {
        "setup_s": [r["setup_s"] for r in plain],
        "run_cpu_s": [r["run_cpu_s"] for r in plain],
        "sim_speed": [r["counters"]["model.sim_time"] / r["run_cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "ok_share": [1.0 - len(failed) / len(mine)],
    }
    summary["end_to_end"] = {
        metric["name"]: {
            "value": statistics.median(samples[metric["name"]]),
            "unit": metric["unit"],
            "samples": samples[metric["name"]],
            "quartiles": _quartiles(samples[metric["name"]]),
        }
        for metric in spec["end_to_end"]
    }
    runs = [r for r in mine if "trace" in r]
    same_seed = [r for r in plain if runs and r["seed"] == runs[0]["seed"]]
    if not same_seed:
        return summary
    # Counters of the untraced run that the traced ones shadow: for a given
    # seed its counts, like the layers' call counts, repeat exactly.
    layer_values = dict(same_seed[0]["counters"])
    for layer in LAYERS:
        rows = [r["trace"]["layers"][layer] for r in runs]
        totals = [r["trace"]["total_s"] for r in runs]
        layer_values[f"{layer}.self_s"] = statistics.median(row["self_s"] for row in rows)
        layer_values[f"{layer}.share"] = statistics.median(
            row["self_s"] / total for row, total in zip(rows, totals)
        )
        layer_values[f"{layer}.calls"] = rows[0]["calls"]
    layer_values["harness.trace_overhead"] = (
        statistics.median(r["raw_run_cpu_s"] for r in runs) / same_seed[0]["raw_run_cpu_s"] - 1.0
    )
    base = [
        r["run_cpu_s"]
        for r in records
        if r["workload"] == WORKLOADS[name].get("baseline") and "digest" in r and not r["traced"]
    ]
    layer_values["harness.observer_overhead"] = (
        statistics.median(samples["run_cpu_s"]) / statistics.median(base) - 1.0 if base else 0.0
    )
    summary["per_layer"] = {
        metric["name"]: {"value": layer_values[metric["name"]], "unit": metric["unit"]}
        for metric in spec["per_layer"]
    }
    summary["edges"] = runs[0]["trace"]["edges"]
    return summary


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


def environment() -> dict:
    """Where and under what load the numbers are taken; call before measuring."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": _git_revision(),
        "platform": platform.platform(),
        "load_average_at_start": list(os.getloadavg()),
    }
