"""Tests for the in-place EXPERIMENTS.md filler."""

import sys
from pathlib import Path

import pytest

from repro.experiments import FIGURES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fill_experiments  # noqa: E402

DOC = (
    "intro\n"
    "<!-- results/fig2_cache_size.txt -->\n"
    "```\nstale series\n```\n"
    "outro ```\n"
    "```\nunmarked block\n```\n"
)


def results_root(tmp_path, text="fresh series\n"):
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "fig2_cache_size.txt").write_text(text)
    return tmp_path


def test_fill_replaces_the_marked_block_only(tmp_path):
    filled = fill_experiments.fill(DOC, results_root(tmp_path))
    assert filled == DOC.replace("stale series", "fresh series")


def test_fill_is_repeatable(tmp_path):
    """Filling a filled file changes nothing (the fill is idempotent)."""
    root = results_root(tmp_path, "line 1\n\nline 3\n\n")
    once = fill_experiments.fill(DOC, root)
    assert fill_experiments.fill(once, root) == once


def test_fill_reports_missing_results(tmp_path):
    """A marker whose results file is missing is an error naming it."""
    (tmp_path / "results").mkdir()
    with pytest.raises(ValueError, match="<!-- results/fig2_cache_size.txt -->"):
        fill_experiments.fill(DOC, tmp_path)


def test_marker_without_a_fence_names_the_marker(tmp_path):
    doc = "<!-- results/fig2_cache_size.txt -->\n\nprose\n```\nx\n```\n"
    with pytest.raises(ValueError, match="fig2_cache_size.txt -->: no fenced"):
        fill_experiments.fill(doc, results_root(tmp_path))


def test_every_figure_has_a_marker():
    text = fill_experiments.TARGET.read_text()
    missing = [
        key
        for key, figure in FIGURES.items()
        if f"<!-- results/{figure.stem}.txt -->\n```" not in text
        or f"<!-- claims {key} -->\n```" not in text
    ]
    assert not missing, f"FIGURES rows with no marked series or claims: {missing}"


def test_committed_experiments_is_a_fixed_point():
    """Every marked block equals its committed results file."""
    text = fill_experiments.TARGET.read_text()
    assert fill_experiments.fill(text, fill_experiments.ROOT) == text
