"""Post-run analysis of a finished :class:`~repro.core.simulation.Simulation`.

The simulator knows things a real deployment would not — the true motion
groups, every cache's contents — so a run can be scored in ways the paper
could not report:

* :func:`tcg_discovery_quality` — precision/recall of the discovered TCG
  pairs against the ground-truth motion groups,
* :func:`cache_duplication` / :func:`group_distinct_items` — how well the
  cooperative cache management suppresses replicas inside groups,
* :func:`cache_overlap_matrix` — pairwise Jaccard similarity of cache
  contents,
* :func:`jain_fairness` — fairness of any per-client series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

import numpy as np

from repro.core.simulation import Simulation

__all__ = [
    "DiscoveryQuality",
    "cache_duplication",
    "cache_overlap_matrix",
    "group_distinct_items",
    "jain_fairness",
    "tcg_discovery_quality",
]


@dataclass(frozen=True)
class DiscoveryQuality:
    """Pairwise precision/recall of TCG discovery vs true motion groups."""

    true_pairs: int
    discovered_pairs: int
    correct_pairs: int

    @property
    def precision(self) -> float:
        """Fraction of discovered pairs that are true same-group pairs."""
        if self.discovered_pairs == 0:
            return 0.0
        return self.correct_pairs / self.discovered_pairs

    @property
    def recall(self) -> float:
        """Fraction of same-group pairs the MSS discovered."""
        if self.true_pairs == 0:
            return 0.0
        return self.correct_pairs / self.true_pairs

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def tcg_discovery_quality(sim: Simulation) -> DiscoveryQuality:
    """Score the MSS's TCG pairs against the ground-truth motion groups."""
    if sim.tcg is None:
        raise ValueError("the simulation ran without TCG discovery (not GC)")
    member = sim.tcg.member
    groups = np.asarray(sim.group_of)
    same_group = groups[:, None] == groups[None, :]
    np.fill_diagonal(same_group, False)
    upper = np.triu(np.ones_like(member, dtype=bool), k=1)
    discovered = member & upper
    truth = same_group & upper
    return DiscoveryQuality(
        true_pairs=int(truth.sum()),
        discovered_pairs=int(discovered.sum()),
        correct_pairs=int((discovered & truth).sum()),
    )


def _group_caches(sim: Simulation) -> Dict[int, List[Set[int]]]:
    groups: Dict[int, List[Set[int]]] = {}
    for index, group in enumerate(sim.group_of):
        groups.setdefault(group, []).append(set(sim.clients[index].cache.items()))
    return groups


def group_distinct_items(sim: Simulation) -> Dict[int, int]:
    """Distinct items currently cached per motion group."""
    return {
        group: len(set().union(*caches))
        for group, caches in _group_caches(sim).items()
    }


def cache_duplication(sim: Simulation) -> float:
    """Mean (cached copies / distinct items) across groups; 1 = no replicas."""
    factors = []
    for caches in _group_caches(sim).values():
        copies = sum(len(cache) for cache in caches)
        distinct = len(set().union(*caches))
        if distinct:
            factors.append(copies / distinct)
    return float(np.mean(factors)) if factors else 0.0


def cache_overlap_matrix(sim: Simulation) -> np.ndarray:
    """(N, N) Jaccard similarity of cache contents (diagonal = 1)."""
    contents = [set(client.cache.items()) for client in sim.clients]
    n = len(contents)
    matrix = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            union = len(contents[i] | contents[j])
            jaccard = len(contents[i] & contents[j]) / union if union else 0.0
            matrix[i, j] = matrix[j, i] = jaccard
    return matrix


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 = perfectly fair, 1/n = maximally unfair.

    The bounds hold for non-negative values only, so a negative or
    non-finite value is rejected by name.
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("need at least one value")
    bad = array[~(np.isfinite(array) & (array >= 0.0))]
    if bad.size:
        raise ValueError(
            f"values must be finite and non-negative, got {float(bad[0])!r}"
        )
    total = array.sum()
    squares = (array**2).sum()
    if squares == 0:
        return 1.0
    return float(total * total / (array.size * squares))
