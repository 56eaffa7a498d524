"""Grandfathered-findings baseline for simlint.

The baseline turns simlint from a boil-the-ocean proposition into a
ratchet: findings that predate a rule are recorded once (fingerprinted)
and stop failing the build, while anything *new* still exits non-zero.
``repro lint --update-baseline`` rewrites the file from the current
tree; ``--prune-baseline`` garbage-collects entries that stopped
matching; deleting an entry (or the file) re-arms the finding.

Fingerprints are **content-addressed, not line-addressed**:

* file-scope findings key on the SHA-256 of
  ``rule :: path :: stripped-source-line`` — unrelated edits that shift
  line numbers leave fingerprints intact, while editing the offending
  line itself re-arms the finding (exactly the moment a human should
  re-decide whether it is still acceptable).  Identical offending lines
  in one file share a fingerprint, so the baseline stores a multiplicity
  and grandfathers at most that many occurrences.
* project-scope findings (whole-program rules) key on
  ``rule :: path :: message`` — their anchor line often belongs to code
  that is only *related* to the defect, so the message is the stable
  identity.

Format 2 adds per-entry ``scope`` and an optional human ``reason``
(preserved across ``--update-baseline`` rewrites).  Format-2 files
written before the per-file ``modules`` hash map was retired still load;
the map is ignored and dropped on the next rewrite.
Format-1 files load transparently — every entry is treated as
file-scope — and are rewritten as format 2 on the next
``--update-baseline``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.engine import LintViolation

__all__ = ["BASELINE_FORMAT", "Baseline", "fingerprint"]

#: Bump when the baseline file layout changes.
BASELINE_FORMAT = 2

#: Formats :meth:`Baseline.load` understands (older ones auto-upgrade).
_READABLE_FORMATS = (1, 2)


def fingerprint(violation: LintViolation, source_line: str) -> str:
    """Stable content-addressed key of one finding."""
    if violation.scope == "project":
        payload = f"{violation.rule}::{violation.path}::{violation.message}"
    else:
        payload = f"{violation.rule}::{violation.path}::{source_line.strip()}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class Baseline:
    """The committed set of grandfathered findings (fingerprint -> count)."""

    entries: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline.

        Format-1 files (no per-entry scope) upgrade in memory: every
        entry becomes file-scope.
        """
        path = Path(path)
        if not path.exists():
            return cls()
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(f"{path} is not a simlint baseline file")
        version = payload.get("format")
        if version not in _READABLE_FORMATS:
            raise ValueError(
                f"{path} has baseline format {version!r}; this simlint "
                f"reads formats {_READABLE_FORMATS}"
            )
        entries = [dict(entry) for entry in payload["entries"]]
        if version == 1:
            for entry in entries:
                entry.setdefault("scope", "file")
        return cls(entries=entries)

    def render(self) -> str:
        """The exact file text :meth:`save` writes (stable byte-for-byte)."""
        payload = {
            "format": BASELINE_FORMAT,
            "comment": (
                "Grandfathered simlint findings; regenerate with "
                "'python -m repro lint --update-baseline', garbage-collect "
                "with '--prune-baseline'.  Delete an entry to re-arm its "
                "finding."
            ),
            "entries": sorted(
                self.entries,
                key=lambda e: (
                    str(e.get("path")),
                    str(e.get("rule")),
                    str(e.get("fingerprint")),
                ),
            ),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path]) -> bool:
        """Write the baseline; returns False when the file was already
        byte-identical (``--update-baseline`` is a strict no-op then)."""
        path = Path(path)
        text = self.render()
        if path.exists() and path.read_text(encoding="utf-8") == text:
            return False
        path.write_text(text, encoding="utf-8")
        return True

    def allowances(self) -> Dict[str, int]:
        """Fingerprint -> how many occurrences are grandfathered."""
        counts: Dict[str, int] = {}
        for entry in self.entries:
            key = str(entry.get("fingerprint"))
            counts[key] = counts.get(key, 0) + 1
        return counts

    def reasons(self) -> Dict[str, str]:
        """Fingerprint -> human reason, for entries that carry one."""
        return {
            str(entry["fingerprint"]): str(entry["reason"])
            for entry in self.entries
            if entry.get("reason")
        }

    @classmethod
    def from_violations(
        cls,
        pairs: List[Tuple[LintViolation, str]],
        reasons: Optional[Dict[str, str]] = None,
    ) -> "Baseline":
        """Build a baseline grandfathering exactly the given findings.

        ``pairs`` holds ``(violation, source_line)`` tuples; the source
        line feeds the fingerprint and a human-readable note rides along
        so reviewers can audit the file without chasing locations.
        ``reasons`` (fingerprint -> text, typically from the previous
        baseline) survive the rewrite.
        """
        reasons = reasons or {}
        entries: List[Dict[str, object]] = []
        for violation, line in pairs:
            key = fingerprint(violation, line)
            entry: Dict[str, object] = {
                "fingerprint": key,
                "rule": violation.rule,
                "path": violation.path,
                "line": violation.line,
                "note": violation.message,
                "scope": violation.scope,
            }
            if key in reasons:
                entry["reason"] = reasons[key]
            entries.append(entry)
        return cls(entries=entries)

    def split(
        self, pairs: List[Tuple[LintViolation, str]]
    ) -> Tuple[List[LintViolation], List[LintViolation], List[str]]:
        """Partition findings into (new, grandfathered) plus stale keys.

        Stale keys are baseline fingerprints that matched nothing — the
        offending code was fixed or rewritten — and should be pruned
        with ``--prune-baseline``.
        """
        remaining = self.allowances()
        new: List[LintViolation] = []
        grandfathered: List[LintViolation] = []
        for violation, line in pairs:
            key = fingerprint(violation, line)
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                grandfathered.append(violation)
            else:
                new.append(violation)
        # One stale entry per unmatched occurrence, so multiplicities
        # survive into --prune-baseline.
        stale = sorted(
            key
            for key, count in remaining.items()
            for _ in range(count)
        )
        return new, grandfathered, stale

    def pruned(
        self, stale: List[str]
    ) -> Tuple["Baseline", List[Dict[str, object]]]:
        """A copy without the ``stale`` fingerprints, plus what was cut.

        Multiplicities are respected: ``stale`` lists each fingerprint
        once per unmatched occurrence, so a fingerprint grandfathered
        three times but matched twice loses exactly one entry.
        """
        budget: Dict[str, int] = {}
        for key in stale:
            budget[key] = budget.get(key, 0) + 1
        kept: List[Dict[str, object]] = []
        removed: List[Dict[str, object]] = []
        # Cut from the end so the surviving entries keep their original
        # relative order (stable for the byte-identity check).
        for entry in reversed(self.entries):
            key = str(entry.get("fingerprint"))
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                removed.append(entry)
            else:
                kept.append(entry)
        kept.reverse()
        removed.reverse()
        return Baseline(entries=kept), removed
