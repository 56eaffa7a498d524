"""Every figure of ``FIGURES``: its sweep re-run and recorded, then its rows
of the claims table (``tools/claims.py``) evaluated on the text just written.
Verdicts are recorded on bench-profile series: elsewhere a moved one warns."""

import sys
import warnings

import pytest
from conftest import RESULTS_DIR, SWEEP_JOBS, run_once, write_provenance

from repro.experiments import FIGURES, active_profile, format_sweep_table, run_sweep

sys.path.insert(0, str(RESULTS_DIR.parent / "tools"))
import claims  # noqa: E402


@pytest.mark.parametrize("key", list(FIGURES))
def test_figure(benchmark, record_table, key):
    figure = FIGURES[key]
    table = run_once(benchmark, lambda: run_sweep(figure, jobs=SWEEP_JOBS, attempts=2))
    record_table(figure.stem, format_sweep_table(table, figure.title))
    write_provenance(figure, table)
    moved = claims.mismatches(key)
    if active_profile() == "bench":
        assert moved == []
    for message in moved:
        warnings.warn(message, stacklevel=1)
