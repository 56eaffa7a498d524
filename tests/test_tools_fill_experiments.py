"""Tests for the EXPERIMENTS.md placeholder filler."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import fill_experiments  # noqa: E402


def setup(tmp_path, results_present=True):
    template = tmp_path / "template.md"
    target = tmp_path / "EXPERIMENTS.md"
    results = tmp_path / "results"
    results.mkdir()
    template.write_text("intro\n```\n{FIG2}\n```\noutro\n")
    if results_present:
        for filename in fill_experiments.placeholders().values():
            (results / filename).write_text(f"data of {filename}\n")
    return template, target, results


def test_fill_substitutes_and_keeps_template(tmp_path):
    template, target, results = setup(tmp_path)
    missing = fill_experiments.fill(template, target, results)
    assert missing == []
    text = target.read_text()
    assert "data of fig2_cache_size.txt" in text
    assert "{FIG2}" not in text
    # The template keeps the placeholders for re-fills.
    assert "{FIG2}" in template.read_text()


def test_fill_is_repeatable(tmp_path):
    template, target, results = setup(tmp_path)
    fill_experiments.fill(template, target, results)
    (results / "fig2_cache_size.txt").write_text("NEW DATA\n")
    fill_experiments.fill(template, target, results)
    assert "NEW DATA" in target.read_text()


def test_fill_reports_missing_results(tmp_path):
    template, target, results = setup(tmp_path, results_present=False)
    missing = fill_experiments.fill(template, target, results)
    assert "fig2_cache_size.txt" in missing
    assert not target.exists()  # nothing written


def test_fill_rejects_template_without_placeholders(tmp_path):
    template, target, results = setup(tmp_path)
    template.write_text("no placeholders here\n")
    with pytest.raises(ValueError):
        fill_experiments.fill(template, target, results)


def test_fill_rejects_missing_template(tmp_path):
    """A filled EXPERIMENTS.md never stands in for a deleted template."""
    template, target, results = setup(tmp_path)
    template.rename(target)
    with pytest.raises(FileNotFoundError, match="template.md"):
        fill_experiments.fill(template, target, results)
    assert not template.exists()


def test_committed_experiments_is_the_filled_template(tmp_path):
    """EXPERIMENTS.md is generated: edit the template, then run the tool."""
    target = tmp_path / "EXPERIMENTS.md"
    missing = fill_experiments.fill(
        fill_experiments.TEMPLATE, target, fill_experiments.RESULTS
    )
    assert missing == []
    assert target.read_bytes() == fill_experiments.TARGET.read_bytes()
