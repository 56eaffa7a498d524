"""Introspection hooks over the policy registry, for tools and lint.

The whole-program ``registry-consistency`` rule
(:mod:`repro.analysis.rules_project_registry`) checks three views of the
policy surface against each other: what the *code* registers, what
``docs/POLICIES.md`` documents, and what the conformance battery covers.
The code view it derives statically (so it works on lint fixtures too);
the functions here expose the *runtime* views so the rule — and any
tool — can cross-check the static scan against the living registry.
The battery covers exactly :func:`registered_policies` by construction
(``repro.policies.conformance.conformance_keys()`` iterates the
registry), so there is no separate coverage view.

Kept free of simulation imports.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

from repro.policies import registry

__all__ = [
    "documented_keys",
    "load_policies_doc",
    "parse_catalogue_rows",
    "registered_policies",
]


def registered_policies() -> Dict[str, List[str]]:
    """namespace -> sorted registered keys, builtins loaded."""
    return {
        namespace: registry.available(namespace)
        for namespace in registry.NAMESPACES
    }


_BACKTICK_RE = re.compile(r"`([^`\n]+)`")


def documented_keys(policies_doc: str) -> Set[str]:
    """Every backticked token in a POLICIES doc (the documented surface)."""
    return {match.group(1).strip() for match in _BACKTICK_RE.finditer(policies_doc)}


def parse_catalogue_rows(
    policies_doc: str, namespaces: Tuple[str, ...] = registry.NAMESPACES
) -> List[Tuple[str, str]]:
    """``(namespace, key)`` pairs from the doc's catalogue table.

    Rows look like ``| `probcache` | admission | ... |`` — the first cell
    holds one or more backticked keys, the second the namespace.  Rows
    whose second cell is not a known namespace (header rows, separator
    rows, other tables) are skipped.
    """
    rows: List[Tuple[str, str]] = []
    for line in policies_doc.splitlines():
        stripped = line.strip()
        if not stripped.startswith("|"):
            continue
        cells = [cell.strip() for cell in stripped.strip("|").split("|")]
        if len(cells) < 2:
            continue
        namespace = cells[1]
        if namespace not in namespaces:
            continue
        for match in _BACKTICK_RE.finditer(cells[0]):
            rows.append((namespace, match.group(1).strip()))
    return rows


def load_policies_doc(root: Path) -> str:
    """The text of ``docs/POLICIES.md`` under ``root`` ('' when absent)."""
    path = Path(root) / "docs" / "POLICIES.md"
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""
