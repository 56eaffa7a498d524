#!/usr/bin/env python3
"""Where a simulation's cold start goes.

Usage::

    python tools/cold_start.py

perfbench charges every run ``setup_s``, but its layer tracer starts
after setup, so it cannot say what setup spends.  This tool starts fresh
interpreters (``sys.executable``, the package's ``src/`` on
``PYTHONPATH``) and prints the median CPU milliseconds, over
:data:`REPEATS` interpreters, of four stages, in the order a perfbench
child meets them:

1. interpreter start (up to the first line of the probe);
2. ``import numpy``;
3. ``import repro.core.config, repro.core.simulation``;
4. ``Simulation(SimulationConfig())``.

It then prints the ``repro`` modules stage 3 leaves loaded, their source
lines, and whether ``csv`` is loaded.  Compilation dominates stage 3, so
measure fresh checkouts: a tree whose ``__pycache__`` holds bytecode
reads faster than one that must compile.  Nothing is gated on the times.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Fresh interpreters per report; each stage prints its median.
REPEATS = 5

#: What a perfbench child imports before it builds the simulation.
_IMPORT = "import repro.core.config, repro.core.simulation"

STAGES = (
    "interpreter start",
    "import numpy",
    _IMPORT,
    "Simulation(SimulationConfig())",
)

_PROBE = f"""
import json, sys, time
marks = [time.process_time()]
import numpy
marks.append(time.process_time())
{_IMPORT}
marks.append(time.process_time())
modules = sorted(sys.modules)
repro.core.simulation.Simulation(repro.core.config.SimulationConfig())
marks.append(time.process_time())
print(json.dumps({{"marks": marks, "modules": modules}}))
"""


def cold_start():
    """One fresh interpreter: (CPU ms per stage, sorted ``sys.modules``
    names right after the ``repro`` imports)."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    report = json.loads(done.stdout)
    marks = report["marks"]
    stage_ms = [1000.0 * marks[0]]
    stage_ms += [1000.0 * (b - a) for a, b in zip(marks, marks[1:])]
    return stage_ms, report["modules"]


def closure_summary(modules):
    """(``repro`` modules, their source lines, ``csv`` loaded?) of a
    ``sys.modules`` name list."""
    repro = [name for name in modules if name == "repro" or name.startswith("repro.")]
    lines = 0
    for name in repro:
        path = SRC.joinpath(*name.split("."))
        source = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        lines += len(source.read_text(encoding="utf-8").splitlines())
    return repro, lines, "csv" in modules


def main():
    runs = [cold_start() for _ in range(REPEATS)]
    medians = [statistics.median(ms[i] for ms, _ in runs) for i in range(len(STAGES))]
    print(f"cold start, CPU ms (median of {REPEATS} fresh interpreters)")
    for stage, ms in zip(STAGES, medians):
        print(f"  {stage:<50} {ms:8.1f}")
    print(f"  {'total':<50} {sum(medians):8.1f}")
    repro, lines, csv_loaded = closure_summary(runs[0][1])
    print(
        f"repro modules loaded: {len(repro)} ({lines} source lines); "
        f"csv loaded: {'yes' if csv_loaded else 'no'}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
