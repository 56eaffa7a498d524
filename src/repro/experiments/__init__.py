"""Experiment harness: the sweeps behind every figure of Section VI.

* :mod:`repro.experiments.runner` — scale profiles (quick / bench /
  full) and ``run_sweep``, the one loop that runs a figure.
* :mod:`repro.experiments.sweeps` — ``FIGURES``: one table row per figure.
* :mod:`repro.experiments.parallel` — fan-out of independent runs over a
  process pool, bit-identical to the serial path.
* :mod:`repro.experiments.cache` — persistent on-disk result cache keyed
  by canonical configuration + code version.
* :mod:`repro.experiments.tables` — text rendering of the result series.
"""

from repro.experiments.cache import ResultCache, config_key
from repro.experiments.parallel import (
    jobs_from_env,
    RunCrashed,
    RunFailure,
    RunSpec,
    execute_runs,
    resolve_jobs,
)
from repro.experiments.runner import (
    BENCH_PROFILE,
    FULL_PROFILE,
    QUICK_PROFILE,
    Figure,
    SweepTable,
    active_profile,
    base_config,
    run_sweep,
)
from repro.experiments.sweeps import FIGURES
from repro.experiments.tables import format_results_row, format_sweep_table

__all__ = [
    "BENCH_PROFILE",
    "FIGURES",
    "FULL_PROFILE",
    "Figure",
    "QUICK_PROFILE",
    "ResultCache",
    "RunCrashed",
    "RunFailure",
    "RunSpec",
    "SweepTable",
    "active_profile",
    "base_config",
    "config_key",
    "execute_runs",
    "format_results_row",
    "format_sweep_table",
    "jobs_from_env",
    "resolve_jobs",
    "run_sweep",
]
