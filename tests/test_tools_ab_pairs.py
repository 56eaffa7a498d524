"""Tests for the alternating-pairs summary (tools/ab_pairs.py)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab_pairs  # noqa: E402


def pair(parent_cpu, change_cpu, parent_rss=50.0, change_rss=43.0):
    return (
        {"run_cpu_s": parent_cpu, "peak_rss_mb": parent_rss},
        {"run_cpu_s": change_cpu, "peak_rss_mb": change_rss},
    )


def test_summary_reads_the_median_ratio_wins_and_parent_spread():
    pairs = [
        pair(1.0, 0.9),
        pair(2.0, 2.2),
        pair(1.0, 0.95),
        pair(4.0, 3.0),
        pair(1.0, 1.0),  # a tie is not a win
    ]
    row = ab_pairs.summarize(pairs)["run_cpu_s"]
    assert row["median_ratio"] == pytest.approx(0.95)
    assert row["wins"] == 3 and row["pairs"] == 5
    assert row["parent_median"] == 1.0
    assert row["change_median"] == 1.0
    # statistics.quantiles' default (exclusive) method over 1, 1, 1, 2, 4.
    assert row["parent_iqr"] == pytest.approx(3.0 - 1.0)
    rss = ab_pairs.summarize(pairs)["peak_rss_mb"]
    assert rss["median_ratio"] == pytest.approx(0.86) and rss["wins"] == 5


def test_summary_of_one_pair_has_no_spread():
    row = ab_pairs.summarize([pair(2.0, 1.0)])["run_cpu_s"]
    assert (row["median_ratio"], row["wins"], row["parent_iqr"]) == (0.5, 1, 0.0)


def test_summary_covers_both_compared_metrics():
    assert set(ab_pairs.summarize([pair(1.0, 1.0)])) == {"run_cpu_s", "peak_rss_mb"}


def test_wrong_arguments_print_the_usage(capsys):
    assert ab_pairs.main(["only-one"]) == 2
    assert "PARENT_DIR CHANGE_DIR WORKLOAD" in capsys.readouterr().err
