#!/usr/bin/env python3
"""Fill EXPERIMENTS.md's ``{FIGn}`` placeholders from results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only``:

    PYTHONPATH=src python tools/fill_experiments.py

Edit ``tools/EXPERIMENTS.template.md``, never EXPERIMENTS.md itself: a
tier-1 test compares the committed file with a fresh fill.  The template
keeps the placeholders, so the fill is repeatable after every benchmark
run; a missing template is an error, never rebuilt from a filled file.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.experiments.sweeps import FIGURES

ROOT = Path(__file__).resolve().parent.parent
TEMPLATE = ROOT / "tools" / "EXPERIMENTS.template.md"
TARGET = ROOT / "EXPERIMENTS.md"
RESULTS = ROOT / "results"


def placeholders() -> dict:
    """Placeholder -> results file, one per ``FIGURES`` row
    (``fig-loss`` -> ``{FIGLOSS}`` -> ``results/fig_link_loss.txt``)."""
    return {
        key.replace("-", "").upper(): f"{figure.stem}.txt"
        for key, figure in FIGURES.items()
    }


def fill(template: Path, target: Path, results: Path) -> list:
    """Substitute placeholders; returns the list of missing results files.

    Raises ``FileNotFoundError`` when ``template`` does not exist and
    ``ValueError`` when it holds no placeholder.
    """
    text = template.read_text()
    if not re.search(r"\{FIG\d\}", text):
        raise ValueError(f"no placeholders found in {template}")
    missing = []
    for key, filename in placeholders().items():
        path = results / filename
        if not path.exists():
            missing.append(filename)
            continue
        text = text.replace("{" + key + "}", path.read_text().rstrip())
    if not missing:
        target.write_text(text)
    return missing


def main() -> int:
    """Fill EXPERIMENTS.md in the repository root."""
    try:
        missing = fill(TEMPLATE, TARGET, RESULTS)
    except (FileNotFoundError, ValueError) as error:
        print(error, file=sys.stderr)
        return 1
    if missing:
        print(f"missing results files: {missing}", file=sys.stderr)
        return 1
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
