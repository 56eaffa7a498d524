"""The policy tables: every strategy a config can choose, by key.

Three strategy axes of the simulator are looked up by ``(namespace,
key)`` instead of being hard-coded — cache admission, cache replacement
and retrieve peer-scoring — and each is one literal table below.  A
policy exists exactly when it has a row, so adding one is one row here
plus its docs/POLICIES.md catalogue row (``tests/test_policy_registry.py``
checks the two agree); the conformance battery
(``tools/conformance_matrix.py``) and ``repro policies list`` iterate
the tables and need no edit.

What a row's ``value`` must be differs per namespace; the factory in
:mod:`repro.policies.factory` documents the builder contracts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.policies import scoring
from repro.policies.admission import (
    AlwaysAdmit,
    GroCoCaAdmission,
    LeaveCopyDownAdmission,
    ProbCacheAdmission,
)
from repro.policies.replacement import (
    GreedyDualReplacement,
    GroCoCaReplacement,
    LRUMinReplacement,
    LRUReplacement,
    PopularityRankReplacement,
)

__all__ = [
    "NAMESPACES",
    "POLICIES",
    "PolicyInfo",
    "available",
    "describe",
    "resolve",
]


@dataclass(frozen=True)
class PolicyInfo:
    """One table row: the value a key resolves to, and its catalogue text.

    ``needs_rng`` marks a policy that draws random numbers; the simulation
    creates its stream (``admission-policy`` / ``peer-policy``) only for
    such a policy, so a deterministic one replays identically.
    """

    value: Any
    summary: str
    citation: str
    needs_rng: bool = False


#: namespace -> key -> row, one table per strategy axis.
POLICIES: Dict[str, Dict[str, PolicyInfo]] = {
    # builder(config, rng) -> AdmissionPolicy
    "admission": {
        "always": PolicyInfo(
            lambda config, rng: AlwaysAdmit(),
            "cache every peer-supplied item (LC/CC baseline, ablation A1)",
            "Chow, Leong & Chan, ICDCS'04 §IV-E",
        ),
        "grococa": PolicyInfo(
            lambda config, rng: GroCoCaAdmission(),
            "full cache refuses TCG-member-supplied items",
            "Chow, Leong & Chan, ICDCS'04 §IV-E",
        ),
        "probcache": PolicyInfo(
            lambda config, rng: ProbCacheAdmission(config.hop_dist, rng),
            "admit with probability hops/hop_dist (distance-weighted)",
            "Psaras, Chai & Pavlou, ICN'12 (ProbCache)",
            needs_rng=True,
        ),
        "lcd": PolicyInfo(
            lambda config, rng: LeaveCopyDownAdmission(),
            "admit only items served by a direct neighbour",
            "Laoutaris, Che & Stavrakakis, 2006 (Leave-Copy-Down)",
        ),
    },
    # builder(config, cache, signature_scheme, peer_signature)
    #     -> ReplacementPolicy; the signature arguments are None outside GC
    "replacement": {
        "lru": PolicyInfo(
            lambda config, cache, scheme, peer: LRUReplacement(cache),
            "evict the least recently used entry (LC/CC baseline)",
            "Chow, Leong & Chan, ICDCS'04 §VI",
        ),
        "grococa": PolicyInfo(
            lambda config, cache, scheme, peer: GroCoCaReplacement(
                cache, scheme, peer, config.replace_candidate, config.replace_delay
            ),
            "replica-first cooperative replacement with SingletTTL aging",
            "Chow, Leong & Chan, ICDCS'04 §IV-E",
        ),
        "lru-min": PolicyInfo(
            lambda config, cache, scheme, peer: LRUMinReplacement(
                cache, config.replace_candidate
            ),
            "evict the near-LRU candidate closest to expiry",
            "Joy & Jacob, 2012 (cache replacement survey; LRU-MIN)",
        ),
        "greedy-dual": PolicyInfo(
            lambda config, cache, scheme, peer: GreedyDualReplacement(cache),
            "inflation-aged retention value seeded from remaining TTL",
            "Young, 1994 / Cao & Irani, USITS'97 (GreedyDual)",
        ),
        "popularity-rank": PolicyInfo(
            lambda config, cache, scheme, peer: PopularityRankReplacement(cache),
            "evict the least-demanded item (own + overheard requests)",
            "Wang & Kulkarni (popularity-ranking cooperative caching)",
        ),
    },
    # (candidates, tracker) -> reply; see repro.policies.scoring
    "peer-scoring": {
        "arrival": PolicyInfo(
            scoring.arrival,
            "first reply to arrive wins (golden-trace default)",
            "Chow, Leong & Chan, ICDCS'04 §III",
        ),
        "least-pending": PolicyInfo(
            scoring.least_pending,
            "fewest outstanding retrieves to the peer",
            "Suresh et al., NSDI'15 (C3/absim queue-length signal)",
        ),
        "latency-aware": PolicyInfo(
            scoring.latency_aware,
            "lowest queue-adjusted EWMA retrieve latency",
            "Suresh et al., NSDI'15 (C3 replica ranking)",
        ),
        "power-aware": PolicyInfo(
            scoring.power_aware,
            "shortest reply path first; latency breaks ties",
            "Chow, Leong & Chan, ICDCS'04 §V (power model)",
        ),
        "epsilon-greedy": PolicyInfo(
            scoring.epsilon_greedy,
            "explore a uniform replier with probability epsilon",
            "Sutton & Barto (epsilon-greedy bandit)",
            needs_rng=True,
        ),
    },
}

#: The namespaces, in table order.
NAMESPACES: Tuple[str, ...] = tuple(POLICIES)


def _table(namespace: str) -> Dict[str, PolicyInfo]:
    table = POLICIES.get(namespace)
    if table is None:
        raise KeyError(
            f"unknown policy namespace {namespace!r}; "
            f"available: {', '.join(NAMESPACES)}"
        )
    return table


def available(namespace: str) -> List[str]:
    """The keys of ``namespace``, sorted."""
    return sorted(_table(namespace))


def describe(namespace: str, key: str) -> PolicyInfo:
    """The row behind ``(namespace, key)``.

    The ``KeyError`` for an unknown key lists every valid key verbatim,
    so a typo'd config or CLI flag is self-explaining.
    """
    table = _table(namespace)
    info = table.get(key)
    if info is None:
        raise KeyError(
            f"unknown {namespace} policy {key!r}; "
            f"available: {', '.join(sorted(table))}"
        )
    return info


def resolve(namespace: str, key: str) -> Any:
    """The value behind ``(namespace, key)``."""
    return describe(namespace, key).value
