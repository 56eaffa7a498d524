"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing, each writes its rendered series to
``results/<name>.txt`` (and stdout) so the numbers survive output capture;
``tools/fill_experiments.py`` copies those files into EXPERIMENTS.md.  A
figure bench also writes ``results/<stem>.json``: the git revision,
profile and source digest the series was measured at, the cache key of
every (row, x) cell and, for a paper figure, its table at one cheap x at the ``quick`` profile (``QUICK_CELLS``), which tier-1
re-simulates.

Scale is controlled by ``REPRO_PROFILE`` (quick / bench / full, default
bench) — see :mod:`repro.experiments.runner`.  ``REPRO_JOBS`` fans each
figure sweep out over that many worker processes (0, empty or unset =
serial; the CLI's ``--jobs 0`` = one per core is a different, explicit
contract) with results identical to the serial runner.  Host time is not
recorded here: wall-clock regressions are measured and gated by
``python3 -m perfbench`` (docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

import repro
from repro.experiments import (
    FIGURES,
    active_profile,
    config_key,
    format_sweep_table,
    jobs_from_env,
    run_sweep,
)
from repro.experiments.cache import source_digest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Worker processes for the figure sweeps (REPRO_JOBS; 0/unset = serial).
SWEEP_JOBS = jobs_from_env()

#: Paper figure -> one x off the shared default point, cheap at the quick
#: profile (1-2 s for LC, CC and GC).  ``tests/test_results_consistency.py``
#: re-simulates it, so a change that moves any scheme there fails tier-1.
QUICK_CELLS = {
    "fig2": 20,
    "fig3": 1.0,
    "fig4": 100,
    "fig5": 1,
    "fig6": 1.0,
    "fig7": 10,
    "fig8": 0.1,
}

#: Rounds per bench: simulations are deterministic, so more rounds would
#: only measure machine noise (that is perfbench's job, not this suite's).
BENCH_ROUNDS = 1


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_table(results_dir):
    """Write a rendered table to results/<name>.txt and echo it."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text)
        print()
        print(text)

    return _record


@pytest.fixture()
def run_figure(benchmark, record_table):
    """Time one ``FIGURES`` row with the suite-wide ``REPRO_JOBS`` fan-out
    and record its table under the row's stem."""

    def _run(key: str, **sweep_kwargs):
        figure = FIGURES[key]
        sweep_kwargs.setdefault("jobs", SWEEP_JOBS)
        table = run_once(benchmark, lambda: run_sweep(figure, **sweep_kwargs))
        record_table(figure.stem, format_sweep_table(table, figure.title))
        write_provenance(figure, table)
        return table

    return _run


def git_revision() -> str:
    """``git describe --always --dirty`` of the checkout, or ``unknown``."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=RESULTS_DIR.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def quick_cell(figure) -> dict:
    """The figure's table at its ``QUICK_CELLS`` x, at the quick profile."""
    value = QUICK_CELLS[figure.key]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_PROFILE", "quick")
        table = run_sweep(figure, values=[value], jobs=SWEEP_JOBS)
    return {"x": value, "table": format_sweep_table(table, figure.title).splitlines()}


def write_provenance(figure, table) -> None:
    """Write ``results/<stem>.json``: what produced ``results/<stem>.txt``."""
    sidecar = {
        "figure": figure.key,
        "revision": git_revision(),
        "profile": active_profile(),
        "source_digest": source_digest(Path(repro.__file__).resolve().parent),
        "cells": [
            {"row": row, "x": value, "config_key": config_key(figure.config(value, row))}
            for value in table.values
            for row in table.rows
        ],
    }
    if figure.key in QUICK_CELLS:
        sidecar["quick"] = quick_cell(figure)
    path = RESULTS_DIR / f"{figure.stem}.json"
    path.write_text(json.dumps(sidecar, indent=1) + "\n")


def run_once(benchmark, fn):
    """Time a deterministic benchmark body ``BENCH_ROUNDS`` times."""
    return benchmark.pedantic(fn, rounds=BENCH_ROUNDS, iterations=1)
