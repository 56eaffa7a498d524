"""The committed figure series agree with each other, with HEAD, and with
their provenance sidecars.

Every paper figure except Fig. 4 (which runs a longer warm-up) passes
through the same default configuration at one of its x values, so the
LC/CC/GC cells there must be equal in every file.  One bench-profile
simulation of that point pins the files to what the code produces, at the
precision the tables print, and to the result digests its sidecar
recorded, bit for bit.  Each ``results/<stem>.json`` written beside a
figure's series must describe exactly that series' rows and x values; the
sidecar of a paper figure also holds its table and digests at one cheap
non-default x at the quick profile, which is re-simulated here too.  A
behaviour-preserving change therefore passes silently, whatever source it
runs, and a behaviour change fails until the figure bench re-records.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.metrics import results_digest
from repro.experiments import FIGURES, format_sweep_table, jobs_from_env, run_sweep

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from claims import ROOT, parse_table  # noqa: E402

RESULTS = ROOT / "results"

SCHEMES = ("LC", "CC", "GC")

#: Stem -> the x label of the shared default point.
DEFAULT_POINT = {
    "fig2_cache_size": "100",
    "fig3_skewness": "0.5",
    "fig5_group_size": "5",
    "fig6_update_rate": "0.0",
    "fig7_scalability": "60",
    "fig8_disconnection": "0.0",
}


def point_cells(text: str, label: str):
    """``{(panel, scheme): cell}`` of the LC/CC/GC series at x ``label``."""
    labels, panels = parse_table(text)
    column = labels.index(label)
    return {
        (panel, scheme): rows[scheme][column]
        for panel, rows in panels.items()
        for scheme in SCHEMES
    }


def committed_default_point():
    stem = "fig2_cache_size"
    return point_cells((RESULTS / f"{stem}.txt").read_text(), DEFAULT_POINT[stem])


@pytest.mark.parametrize("stem", sorted(DEFAULT_POINT))
def test_default_point_is_the_same_in_every_figure(stem):
    cells = point_cells((RESULTS / f"{stem}.txt").read_text(), DEFAULT_POINT[stem])
    assert cells == committed_default_point()


def test_default_point_reproduces_at_head(monkeypatch):
    """Three bench-profile runs (LC, CC, GC at Fig. 2's default x)."""
    monkeypatch.setenv("REPRO_PROFILE", "bench")
    figure = FIGURES["fig2"]
    x = int(DEFAULT_POINT[figure.stem])
    table = run_sweep(figure, values=[x], jobs=jobs_from_env())
    rendered = format_sweep_table(table, figure.title)
    assert point_cells(rendered, DEFAULT_POINT[figure.stem]) == (
        committed_default_point()
    )
    sidecar = json.loads((RESULTS / f"{figure.stem}.json").read_text())
    assert sidecar["profile"] == "bench"
    recorded = {cell["row"]: cell["digest"] for cell in sidecar["cells"] if cell["x"] == x}
    assert {scheme: results_digest(table.result(scheme, x)) for scheme in SCHEMES} == (
        recorded
    )


SIDECARS = sorted(RESULTS.glob("*.json"))

#: The paper figures.
QUICK_FIGURES = [f"fig{number}" for number in range(2, 9)]


def test_every_figure_series_has_a_sidecar():
    assert {path.stem for path in SIDECARS} == {
        figure.stem for figure in FIGURES.values()
    }


@pytest.mark.parametrize("path", SIDECARS, ids=lambda path: path.stem)
def test_sidecar_describes_its_series(path):
    sidecar = json.loads(path.read_text())
    figure = FIGURES[sidecar["figure"]]
    assert figure.stem == path.stem
    labels, panels = parse_table((RESULTS / f"{path.stem}.txt").read_text())
    rows = list(next(iter(panels.values())))
    assert [(str(cell["x"]), cell["row"]) for cell in sidecar["cells"]] == [
        (label, row) for label in labels for row in rows
    ]
    assert sidecar["profile"] in ("quick", "bench", "full")
    assert all(len(cell["digest"]) == 64 for cell in sidecar["cells"])


@pytest.mark.parametrize("path", SIDECARS, ids=lambda path: path.stem)
def test_sidecar_names_outcomes_only(path):
    """No field that moves when only the source does: a re-run of an
    unchanged simulator rewrites no sidecar byte."""
    sidecar = json.loads(path.read_text())
    quick = {"quick"} if sidecar["figure"] in QUICK_FIGURES else set()
    assert set(sidecar) == {"figure", "profile", "cells"} | quick
    assert all(set(cell) == {"row", "x", "digest"} for cell in sidecar["cells"])
    if quick:
        assert set(sidecar["quick"]) == {"x", "table", "digests"}


def test_every_paper_figure_sidecar_has_a_quick_cell():
    sidecars = [json.loads(path.read_text()) for path in SIDECARS]
    assert {sidecar["figure"] for sidecar in sidecars if "quick" in sidecar} == set(
        QUICK_FIGURES
    )


@pytest.mark.parametrize("key", QUICK_FIGURES)
def test_quick_cell_reproduces_at_head(key, monkeypatch):
    """LC, CC and GC at one non-default x per figure (1-2 s each): the
    default point alone would miss a change that moves the schemes only
    away from it."""
    monkeypatch.setenv("REPRO_PROFILE", "quick")
    figure = FIGURES[key]
    quick = json.loads((RESULTS / f"{figure.stem}.json").read_text())["quick"]
    table = run_sweep(figure, values=[quick["x"]], jobs=jobs_from_env())
    assert format_sweep_table(table, figure.title).splitlines() == quick["table"]
    assert {
        row: results_digest(table.result(row, quick["x"])) for row in table.rows
    } == quick["digests"]
