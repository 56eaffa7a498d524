"""The committed figure series agree with each other, with HEAD, and with
their provenance sidecars.

Every paper figure except Fig. 4 (which runs a longer warm-up) passes
through the same default configuration at one of its x values, so the
LC/CC/GC cells there must be equal in every file.  One bench-profile
simulation of that point pins the files to what the code produces, at the
precision the tables print.  Each ``results/<stem>.json`` written beside a
figure's series must describe exactly that series' rows and x values; the
sidecar of a paper figure also holds its table at one cheap non-default x
at the quick profile, which is re-simulated here too.
"""

import json
import warnings
from pathlib import Path

import pytest

import repro
from repro.experiments import FIGURES, format_sweep_table, jobs_from_env, run_sweep
from repro.experiments.cache import source_digest

RESULTS = Path(__file__).resolve().parent.parent / "results"
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


def parse_table(text: str):
    """``(x labels, {panel: {row: cells}})`` of a rendered sweep table."""
    labels, panels = None, {}
    for line in text.splitlines():
        if line.startswith("("):
            panel = panels[line] = {}
            header = True
        elif "|" in line:
            name, cells = line.split("|")
            if header:
                labels, header = cells.split(), False
            else:
                panel[name.strip()] = cells.split()
    return labels, panels


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
    table = run_sweep(
        figure, values=[int(DEFAULT_POINT[figure.stem])], jobs=jobs_from_env()
    )
    rendered = format_sweep_table(table, figure.title)
    assert point_cells(rendered, DEFAULT_POINT[figure.stem]) == (
        committed_default_point()
    )


SIDECARS = sorted(RESULTS.glob("*.json"))


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
    assert all(len(cell["config_key"]) == 64 for cell in sidecar["cells"])
    tree = source_digest(Path(repro.__file__).resolve().parent)
    if sidecar["source_digest"] != tree:
        warnings.warn(
            f"{path.name} was recorded from other source "
            f"({sidecar['revision']}); re-run its bench if behaviour changed"
        )


#: The paper figures.
QUICK_FIGURES = [f"fig{number}" for number in range(2, 9)]


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
