"""The claims table (``tools/claims.py``): recorded verdicts hold on the
committed series, and a moved or missing cell flips exactly its readers."""

import re
import shutil
import sys
from pathlib import Path

import pytest

from repro.experiments import FIGURES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import claims  # noqa: E402


@pytest.mark.parametrize("key", list(FIGURES))
def test_recorded_verdicts_hold_on_the_committed_series(key):
    """So every row names what its table prints: a panel or row the table
    lacks raises here, and an x off its axis evaluates N/A."""
    assert claims.mismatches(key) == []


def test_every_figure_earns_a_claim():
    assert {claim.figure for claim in claims.CLAIMS} == set(FIGURES)


def test_every_deviation_says_why_and_where():
    assert [
        claims.describe(c)
        for c in claims.CLAIMS
        if c.verdict != claims.PASS and not (c.reason and c.evidence)
    ] == []


def _results_with(tmp_path, key, pattern, new, times=1):
    """A copy of ``results/`` whose ``key`` table reads ``new`` for ``pattern``."""
    shutil.copytree(claims.ROOT / "results", tmp_path / "results")
    path = tmp_path / "results" / f"{FIGURES[key].stem}.txt"
    text, replaced = re.subn(pattern, new, path.read_text())
    assert replaced == times
    path.write_text(text)
    return tmp_path


def test_moving_one_cell_flips_exactly_the_row_that_reads_it(tmp_path):
    """GC's narrow-end GCH (46.74) moved below CC's (40.87)."""
    moved = _results_with(tmp_path, "fig4", r"\b46\.74", "40.00")
    assert claims.mismatches("fig4", moved) == [
        "fig4 gch_ratio: GC > CC at 500: recorded PASS, evaluates DEVIATION "
        "(fails at 500)"
    ]


def test_an_unavailable_cell_is_never_pass(tmp_path):
    """A salvaged sweep prints ``n/a`` for a quarantined run."""
    salvaged = _results_with(tmp_path, "fig4", r"\b46\.74", "n/a")
    reading = [
        verdict
        for claim, verdict, _ in claims.verdicts("fig4", salvaged)
        if claim.panel == "gch_ratio" and "GC" in (claim.series, claim.operand)
    ]
    assert reading and set(reading) == {claims.UNAVAILABLE}
    assert len(claims.mismatches("fig4", salvaged)) == len(reading)


@pytest.mark.parametrize(
    ("key", "profile"), [("fig2", "quick"), ("fig7", "quick"), ("fig7", "full")]
)
def test_an_x_off_the_axis_is_never_pass(tmp_path, key, profile):
    """The figure bench at another profile: a row reading an x its axis
    lacks (fig 2's 50, fig 7's 240) is N/A, and no other row moves."""
    labels = [str(x) for x in FIGURES[key].axis[profile]]
    header = "".join(f"{x:>10}" for x in labels)
    relabelled = _results_with(
        tmp_path, key, rf"(?m)^( *{FIGURES[key].parameter} \|).*$", rf"\g<1>{header}", 4
    )
    off_axis = [
        c
        for c in claims.CLAIMS
        if c.figure == key and not set(claims.names(c.x)) - {"sum"} <= set(labels)
    ]
    assert off_axis and claims.mismatches(key, relabelled) == [
        f"{key} {claims.describe(c)}: recorded PASS, evaluates N/A" for c in off_axis
    ]
