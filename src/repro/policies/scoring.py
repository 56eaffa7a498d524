"""Retrieve peer-scoring policies: which replier a host retrieves from.

A scoring policy picks one reply from the breaker-admitted candidates
(arrival order preserved), reading the per-peer estimates of a
:class:`~repro.net.health.PeerHealthTracker`; ties break toward arrival
order, so every policy is deterministic.  ``arrival`` reproduces the
paper's first-reply behaviour and is the golden-trace default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.net.health import PeerHealthTracker

__all__ = [
    "ScoringPolicy",
    "arrival",
    "epsilon_greedy",
    "latency_aware",
    "least_pending",
    "power_aware",
]

#: ``(candidates, tracker) -> the chosen reply``.
ScoringPolicy = Callable[[List[dict], "PeerHealthTracker"], dict]


def arrival(candidates: List[dict], tracker: "PeerHealthTracker") -> dict:
    """Today's behaviour: the first reply to arrive wins."""
    return candidates[0]


def least_pending(candidates: List[dict], tracker: "PeerHealthTracker") -> dict:
    """Fewest outstanding retrieves (absim's queue-length signal)."""
    return min(
        enumerate(candidates),
        key=lambda pair: (tracker.peer(pair[1]["peer"]).pending, pair[0]),
    )[1]


def latency_aware(candidates: List[dict], tracker: "PeerHealthTracker") -> dict:
    """Lowest queue-adjusted EWMA latency."""
    return min(
        enumerate(candidates),
        key=lambda pair: (
            tracker.peer(pair[1]["peer"]).expected_latency(),
            pair[0],
        ),
    )[1]


def power_aware(candidates: List[dict], tracker: "PeerHealthTracker") -> dict:
    """Shortest reply path first (every extra hop taxes relay radios),
    breaking ties by queue-adjusted latency."""
    return min(
        enumerate(candidates),
        key=lambda pair: (
            len(pair[1]["path"]) - 1,
            tracker.peer(pair[1]["peer"]).expected_latency(),
            pair[0],
        ),
    )[1]


def epsilon_greedy(candidates: List[dict], tracker: "PeerHealthTracker") -> dict:
    """Explore a uniform candidate with probability ε, else exploit
    the latency-aware ranking.  Draws come from the tracker's dedicated
    ``peer-policy`` stream so other subsystems' sequences never shift."""
    rng = tracker.rng
    if rng is None:
        raise RuntimeError("epsilon-greedy policy needs a random stream")
    if rng.random() < tracker.epsilon:
        return candidates[int(rng.integers(len(candidates)))]
    return latency_aware(candidates, tracker)
