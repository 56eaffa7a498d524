"""The whole-row TCG check, kept as a test reference.

``src/`` accepts a consistent TCG row from its few candidate pairs in
Python scalars and runs the rules over whole rows only when that test
fails; this is the check it replaced, copied from the revision before
(``397428d``): every row re-derived with numpy on every call.  Nothing in
``src/`` uses it: ``tests/test_monitor_differential.py`` runs both checks
over the same managers, corrupted in every way the rules know, and
requires the same violations, and ``benchmarks/test_micro_monitor.py``
times them side by side.

Only ``check_tcg_row`` is spelled out, with the kernel-time default for
``now`` both sides share; the violation plumbing, the counters and the
clock ``on_step`` keeps are inherited.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.check.monitor import InvariantMonitor

__all__ = ["WholeRowMonitor"]


class WholeRowMonitor(InvariantMonitor):
    """:class:`InvariantMonitor` checking every TCG row with numpy rules."""

    def check_tcg_row(
        self, tcg: Any, client: int, now: Optional[float] = None
    ) -> None:
        """One client's TCG row: symmetric, irreflexive, and exactly the
        located pairs that meet both thresholds."""
        self._checks += 1
        if now is None:
            now = self._now
        row = tcg.member[client]
        if row[client]:
            self.violation(
                "tcg-self-membership",
                "client is a member of its own TCG row",
                sim_time=now,
                host=client,
            )
        if not np.array_equal(row, tcg.member[:, client]):
            self.violation(
                "tcg-asymmetry",
                "membership row and column disagree",
                sim_time=now,
                host=client,
            )
        row = row.copy()
        row[client] = False  # self-membership is reported above, once
        distances = tcg.wadm[client]
        near = distances <= tcg.distance_threshold
        # Similarities matter only for the members and for located pairs
        # inside Δ, which a stale cached half could have left out of the row.
        candidates = near & tcg._has_location & tcg._has_location[client]
        candidates[client] = False
        if not (row.any() or candidates.any()):
            return
        similarities = tcg.similarity_row(client)
        alike = similarities >= tcg.similarity_threshold
        if np.any(row & ~near):
            self.violation(
                "tcg-distance-threshold",
                f"member at weighted distance {float(distances[row].max())} "
                f"over Δ={tcg.distance_threshold}",
                sim_time=now,
                host=client,
            )
        if np.any(row & ~alike):
            self.violation(
                "tcg-similarity-threshold",
                f"member at similarity {float(similarities[row].min())} "
                f"under δ={tcg.similarity_threshold}",
                sim_time=now,
                host=client,
            )
        missing = np.nonzero(candidates & alike & ~row)[0]
        if missing.size:
            self.violation(
                "tcg-missing-member",
                f"clients {missing.tolist()} meet Δ={tcg.distance_threshold} and "
                f"δ={tcg.similarity_threshold} but are not members",
                sim_time=now,
                host=client,
            )
