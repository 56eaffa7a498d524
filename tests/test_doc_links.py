"""Every document, bench and tool the repo points at exists.

A ``docs/*.md``, ``benchmarks/*.py`` or ``tools/*.py`` path named in the
top-level docs, ``docs/``, the CI workflow or the code must resolve from
the repo root, and every relative ``.md`` link in a markdown file from
that file's directory.  Deleting or renaming a file then fails here
until each reference is retargeted.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NAMED_PATH = re.compile(r"\b(docs/[\w-]+\.md|(?:benchmarks|tools)/\w+\.py)\b")
MD_LINK = re.compile(r"\]\(([^)\s#]+\.md)(?:#[^)]*)?\)")


def _referring_files():
    yield from (ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"))
    yield from sorted((ROOT / "docs").glob("*.md"))
    yield ROOT / ".github" / "workflows" / "ci.yml"
    for directory in ("src", "examples", "tools", "tests", "benchmarks"):
        yield from sorted((ROOT / directory).rglob("*.py"))


def test_every_named_document_resolves():
    missing = []
    for path in _referring_files():
        text = path.read_text(encoding="utf-8")
        where = path.relative_to(ROOT)
        for name in NAMED_PATH.findall(text):
            if not (ROOT / name).is_file():
                missing.append(f"{where}: {name}")
        if path.suffix == ".md":
            for target in MD_LINK.findall(text):
                if "://" not in target and not (path.parent / target).is_file():
                    missing.append(f"{where}: ({target})")
    assert missing == []
