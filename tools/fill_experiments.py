#!/usr/bin/env python3
"""Copy every committed results series into EXPERIMENTS.md, in place.

Run after ``pytest benchmarks/ --benchmark-only``:

    python tools/fill_experiments.py

A measured block is a fenced block directly under a marker line naming
its results file::

    <!-- results/fig2_cache_size.txt -->
    ```
    ...rewritten from results/fig2_cache_size.txt...
    ```

Only the bodies of marked blocks are rewritten; everything else in
EXPERIMENTS.md is prose, edited by hand.  A marker whose file is missing,
or with no fenced block directly under it, is an error naming the marker
(and nothing is written).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = ROOT / "EXPERIMENTS.md"

#: ``<!-- results/<stem>.txt -->`` on a line of its own.
MARKER = re.compile(r"^<!-- (results/[^\s/]+\.txt) -->\n", re.M)
#: A fenced block: the opening fence line, the body, the closing fence.
BLOCK = re.compile(r"(```[^\n]*\n).*?^```$", re.M | re.S)


def fill(text: str, root: Path) -> str:
    """``text`` with each marked block's body replaced by its file under
    ``root``; raises ``ValueError`` naming the first broken marker."""
    pieces = []
    position = 0
    for marker in MARKER.finditer(text):
        name = marker.group(0).strip()
        block = BLOCK.match(text, marker.end())
        if block is None:
            raise ValueError(f"{name}: no fenced block directly under the marker")
        path = root / marker.group(1)
        if not path.is_file():
            raise ValueError(f"{name}: {path} does not exist")
        body = path.read_text().rstrip("\n")
        pieces += [text[position : marker.end()], block.group(1), body, "\n```"]
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
