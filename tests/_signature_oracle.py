"""An exact oracle behind the GroCoCa peer signature, kept in ``tests/``.

A GroCoCa host's peer signature (:class:`~repro.signatures.peer.PeerSignature`)
should count, at every bit position, how many of its TCG members' cache
signatures set that bit (PAPER.md §IV-D.4).  The simulator can see every
member's own counting filter, so at each global audit this monitor builds
that expected vector and measures the real one against it:

* **counter drift** — Σ|expected − actual| over all positions;
* **false negatives** — items some member caches that the host's
  search filter (``likely_cached_by_members``) rules out, so the host
  skips a search that would have hit;
* **false positives** — over a fixed sample of items no member caches,
  the share the filter lets through, beside
  :meth:`~repro.signatures.bloom.SignatureScheme.false_positive_probability`
  for the members' summed cache sizes.

It reports and never judges: an update still in flight is drift too.  It
only reads state — cache iteration and membership tests, never
``touch`` — so a run monitored by it is bit-identical to one monitored
by the plain :class:`~repro.check.monitor.InvariantMonitor`
(``tests/test_signature_oracle.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.check.monitor import InvariantMonitor

__all__ = ["SignatureOracle"]


class SignatureOracle(InvariantMonitor):
    """:class:`InvariantMonitor` that also audits every peer signature."""

    def __init__(self, *args: Any, fp_sample: int = 64, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Size of the fixed item sample the false-positive rate is taken on.
        self.fp_sample = int(fp_sample)
        self.signature_audits = 0
        self.drift = 0
        self.held = 0
        self.false_negatives = 0
        self.absent = 0
        self.false_positives = 0
        self._expected_fp_sum = 0.0

    def audit(self, simulation: Any) -> None:
        super().audit(simulation)
        self.audit_signatures(simulation)

    def audit_signatures(self, simulation: Any) -> None:
        """Measure every GC host's peer signature against its members."""
        clients = simulation.clients
        n_data = simulation.config.n_data
        sample = range(0, n_data, max(1, n_data // self.fp_sample))
        for client in clients:
            agent = client.signatures
            if agent is None or not agent.members:
                continue
            self.signature_audits += 1
            expected: Dict[int, int] = {}
            held: Set[int] = set()
            cached = 0
            for member in agent.members:
                peer = clients[member]
                for position in peer.signatures.own.counters:
                    expected[position] = expected.get(position, 0) + 1
                held.update(peer.cache)
                cached += len(peer.cache)
            actual = agent.peer.counters
            self.drift += sum(
                abs(expected.get(position, 0) - actual.get(position, 0))
                for position in expected.keys() | actual.keys()
            )
            self.held += len(held)
            self.false_negatives += sum(
                not agent.likely_cached_by_members(item) for item in held
            )
            bound = agent.scheme.false_positive_probability(cached)
            for item in sample:
                if item not in held:
                    self.absent += 1
                    self.false_positives += agent.likely_cached_by_members(item)
                    self._expected_fp_sum += bound

    @property
    def false_negative_rate(self) -> float:
        """Share of member-held items the search filter rules out."""
        return self.false_negatives / self.held if self.held else 0.0

    @property
    def false_positive_rate(self) -> float:
        """Share of sampled unheld items the search filter lets through."""
        return self.false_positives / self.absent if self.absent else 0.0

    @property
    def expected_false_positive_rate(self) -> float:
        """The Bloom bound, averaged over the same samples."""
        return self._expected_fp_sum / self.absent if self.absent else 0.0
