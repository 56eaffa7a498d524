"""Every document the repo points at exists.

A ``docs/<NAME>.md`` path named anywhere in the top-level docs, in
``docs/``, or in the code under ``src/``, ``examples/`` and ``tools/``
must resolve from the repo root, and every relative ``.md`` link in a
markdown file must resolve from that file's directory.  Deleting or
renaming a document then fails here until each reference is retargeted.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOCS_PATH = re.compile(r"\bdocs/([A-Za-z0-9_-]+\.md)\b")
MD_LINK = re.compile(r"\]\(([^)\s#]+\.md)(?:#[^)]*)?\)")


def _referring_files():
    yield from (ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"))
    yield from sorted((ROOT / "docs").glob("*.md"))
    for directory in ("src", "examples", "tools"):
        yield from sorted((ROOT / directory).rglob("*.py"))


def test_every_named_document_resolves():
    missing = []
    for path in _referring_files():
        text = path.read_text(encoding="utf-8")
        where = path.relative_to(ROOT)
        for name in DOCS_PATH.findall(text):
            if not (ROOT / "docs" / name).is_file():
                missing.append(f"{where}: docs/{name}")
        if path.suffix == ".md":
            for target in MD_LINK.findall(text):
                if "://" not in target and not (path.parent / target).is_file():
                    missing.append(f"{where}: ({target})")
    assert missing == []
