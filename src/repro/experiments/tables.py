"""Text rendering of sweep results in the paper's panel layout."""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.metrics import Results
from repro.experiments.runner import SweepTable

__all__ = ["format_results_row", "format_sweep_table"]

#: (attribute, panel title, unit, format)
PANELS: List[Tuple[str, str, str]] = [
    ("access_latency", "(a) Access Latency", "s"),
    ("server_request_ratio", "(b) Server Request Ratio", "%"),
    ("gch_ratio", "(c) GCH Ratio", "%"),
    ("power_per_gch", "(d) Power per GCH", "uW.s"),
]


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "      n/a"
    if math.isinf(value):
        return "      inf"
    if value == 0:
        return "        0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:9.0f}"
    if magnitude >= 1:
        return f"{value:9.2f}"
    return f"{value:9.4f}"


def format_results_row(result: Results) -> str:
    """One-line summary of a single run."""
    return (
        f"{result.scheme:>3}  lat={result.access_latency:.4f}s  "
        f"server={result.server_request_ratio:5.1f}%  "
        f"gch={result.gch_ratio:5.1f}%  lch={result.lch_ratio:5.1f}%  "
        f"power/gch={_fmt(result.power_per_gch).strip()}"
    )


def format_sweep_table(table: SweepTable, title: str = "") -> str:
    """Render all four panels of one figure as aligned text tables.

    Columns widen to fit the longest x label and the gutter to fit the
    parameter name and the longest row label (never below 10 and 12, the
    widths every numeric-axis figure uses).
    """
    lines: List[str] = []
    header = f"=== {table.figure}: {title or table.parameter} ==="
    lines.append(header)
    schemes = list(table.rows)
    labels = [str(v) for v in table.values]
    width = max([10] + [len(label) + 1 for label in labels])
    gutter = max([12, len(table.parameter)] + [len(scheme) for scheme in schemes])
    for metric, panel, unit in PANELS:
        lines.append("")
        lines.append(f"{panel} [{unit}]")
        value_cells = "".join(f"{label:>{width}}" for label in labels)
        lines.append(f"  {table.parameter:>{gutter}} |{value_cells}")
        lines.append("  " + "-" * (gutter + 2 + width * len(labels)))
        for scheme in schemes:
            series = table.series(scheme, metric)
            cells = "".join(f"{_fmt(v):>{width}}" for v in series)
            lines.append(f"  {scheme:>{gutter}} |{cells}")
    lines.append("")
    return "\n".join(lines)
