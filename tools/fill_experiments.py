#!/usr/bin/env python3
"""Regenerate, in place, every marked block of EXPERIMENTS.md.

Run after ``pytest benchmarks/ --benchmark-only``:

    PYTHONPATH=src python tools/fill_experiments.py

A marked block is a fenced block directly under a marker line: under
``<!-- results/<stem>.txt -->`` its body is that file, under
``<!-- claims <figure> -->`` the figure's PASS / DEVIATION rows of the
claims table (``tools/claims.py``).  Everything else in EXPERIMENTS.md is
prose, edited by hand.  A marker whose file is missing, whose claims moved
verdict, or with no fenced block directly under it, is an error naming
the marker (and nothing is written).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import claims

ROOT = claims.ROOT
TARGET = ROOT / "EXPERIMENTS.md"

#: ``<!-- results/<stem>.txt -->`` or ``<!-- claims <figure> -->``, alone on a line.
MARKER = re.compile(r"^<!-- (?:(results/[^\s/]+\.txt)|claims ([\w-]+)) -->\n", re.M)
#: A fenced block: the opening fence line, the body, the closing fence.
BLOCK = re.compile(r"(```[^\n]*\n).*?^```$", re.M | re.S)


def fill(text: str, root: Path) -> str:
    """``text`` with each marked block's body regenerated from the series
    under ``root``; raises ``ValueError`` naming the first broken marker."""
    pieces = []
    position = 0
    for marker in MARKER.finditer(text):
        name = marker.group(0).strip()
        block = BLOCK.match(text, marker.end())
        if block is None:
            raise ValueError(f"{name}: no fenced block directly under the marker")
        path, figure = marker.groups()
        try:
            body = claims.render(figure, root) if figure else (root / path).read_text()
        except (OSError, KeyError, ValueError) as error:
            raise ValueError(f"{name}: {error}") from None
        pieces += [text[position : marker.end()], block.group(1), body.rstrip("\n")]
        pieces.append("\n```")
        position = block.end()
    pieces.append(text[position:])
    return "".join(pieces)


def main() -> int:
    """Fill EXPERIMENTS.md in the repository root."""
    try:
        text = fill(TARGET.read_text(), ROOT)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    TARGET.write_text(text)
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
