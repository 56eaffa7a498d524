"""Edge cases of the table number formatter and the sweep-table layout."""

import math
from pathlib import Path

from repro.experiments import SweepTable, format_sweep_table
from repro.experiments.tables import _fmt


def test_fmt_zero():
    assert _fmt(0) == "        0"


def test_fmt_inf_and_nan():
    assert _fmt(math.inf).strip() == "inf"
    assert _fmt(float("nan")).strip() == "n/a"
    assert _fmt(None).strip() == "n/a"


def test_fmt_magnitude_bands():
    assert _fmt(12345.6).strip() == "12346"
    assert _fmt(12.345).strip() == "12.35"
    assert _fmt(0.01234).strip() == "0.0123"
    assert _fmt(-5000).strip() == "-5000"


def test_fmt_width_is_stable():
    for value in (0, 1.5, 123456.0, 0.001, math.inf):
        assert len(_fmt(value)) == 9


def _empty_table(parameter, values, rows):
    """A table of quarantined points (every cell renders ``n/a``)."""
    return SweepTable("FigT", parameter, values, {row: [None] * len(values) for row in rows})


def test_wide_labels_keep_columns_aligned_and_separated():
    values = ["stationary-zipf", "popularity-drift", "ycsb"]  # 16 chars max
    rows = ["LC", "epsilon-greedy"]  # 14 chars: wider than the 12 gutter
    text = format_sweep_table(_empty_table("workload", values, rows))
    body = [line for line in text.splitlines() if "|" in line]
    assert len(body) == 4 * (1 + len(rows))
    assert len({line.index("|") for line in body}) == 1
    assert len({len(line) for line in body}) == 1
    for line in body:
        if "workload" in line:
            assert line.split("|")[1].split() == values  # no labels run together
    rules = [line for line in text.splitlines() if line.startswith("  --")]
    assert {len(rule) for rule in rules} == {len(body[0])}


def test_numeric_axis_table_renders_the_committed_layout():
    committed = Path(__file__).resolve().parent.parent / "results" / "fig2_cache_size.txt"
    header, rule = committed.read_text().splitlines()[3:5]
    table = _empty_table("cache_size", [50, 100, 150, 200, 250], ["LC", "CC", "GC"])
    lines = format_sweep_table(table).splitlines()
    assert lines[3:5] == [header, rule]
    assert lines[5] == "            LC |" + "       n/a" * 5


def test_long_parameter_name_widens_the_gutter():
    """``data_update_rate`` (16 chars) is wider than the 12-char gutter:
    the header grows the gutter instead of pushing its ``|`` out of line."""
    table = _empty_table("data_update_rate", [0.0, 1.0, 10.0], ["LC", "CC", "GC"])
    body = [line for line in format_sweep_table(table).splitlines() if "|" in line]
    assert body[0] == "  data_update_rate |       0.0       1.0      10.0"
    assert len({line.index("|") for line in body}) == 1
