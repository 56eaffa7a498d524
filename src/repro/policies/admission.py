"""Cache-admission policies for peer-supplied items.

An admission policy decides whether the item a peer just served should be
copied into the local cache.  :class:`MobileHost` consults it on *every*
peer-supplied item (full cache or not); the paper's two rules (``always``,
``grococa``) admit without counting while the cache has room, which is
what the ``admitted``/``rejected`` totals in the golden traces record.

The two new on-path policies adapt ideas from in-network caching to the
P2P flood: ``probcache`` admits probabilistically with the fetch
distance (Psaras, Chai & Pavlou, ProbCache), ``lcd`` copies only from a
direct neighbour so a popular item migrates one hop per fetch toward its
requesters (Laoutaris et al., Leave-Copy-Down).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "AdmissionPolicy",
    "AlwaysAdmit",
    "GroCoCaAdmission",
    "LeaveCopyDownAdmission",
    "ProbCacheAdmission",
]


class AdmissionPolicy:
    """Base class: decide whether to cache one peer-supplied item.

    ``should_cache`` receives the full decision context:

    * ``cache_full`` — whether an insertion would displace a victim;
    * ``from_tcg_member`` — whether the serving peer is a TCG member
      (always ``False`` outside GroCoCa);
    * ``hops`` — the serving peer's distance on the reply path (>= 1).

    ``enabled`` is ``False`` only for the pass-through ``always`` policy;
    the ablation tests read it.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self.admitted = 0
        self.rejected = 0

    def should_cache(
        self, *, cache_full: bool, from_tcg_member: bool, hops: int
    ) -> bool:
        raise NotImplementedError

    def _count(self, decision: bool) -> bool:
        if decision:
            self.admitted += 1
        else:
            self.rejected += 1
        return decision


class AlwaysAdmit(AdmissionPolicy):
    """Cache every peer-supplied item (LC/CC, and GroCoCa ablation A1).

    Only full-cache decisions are counted — the insertions that displace
    a victim — which is what the ``admitted`` total has always meant in
    the goldens.
    """

    enabled = False

    def should_cache(
        self, *, cache_full: bool, from_tcg_member: bool, hops: int
    ) -> bool:
        if cache_full:
            self.admitted += 1
        return True


class GroCoCaAdmission(AdmissionPolicy):
    """Section IV-E admission control: replicas inside a TCG are rationed.

    * a peer-supplied item is always cached while the cache has room
      (and, like :class:`AlwaysAdmit`, not counted);
    * with a *full* cache, an item supplied by a TCG member is **not**
      cached — it stays readily available at that member;
    * with a full cache, an item supplied by a non-member is cached (the
      supplier may move away), displacing the victim chosen by the
      cooperative replacement protocol.

    On the supplier side, serving a TCG member counts as an access: the
    supplier refreshes the item's recency so shared items survive longer
    in the group's aggregate cache.
    """

    def should_cache(
        self, *, cache_full: bool, from_tcg_member: bool, hops: int
    ) -> bool:
        if not cache_full:
            return True
        return self._count(not from_tcg_member)


class ProbCacheAdmission(AdmissionPolicy):
    """Probabilistic on-path admission weighted by fetch distance.

    ProbCache caches with a probability that grows with the distance the
    copy travelled, concentrating replicas near consumers without caching
    every transit item.  Adapted to the bounded-hop flood: the admission
    probability is ``hops / hop_dist`` — an item served by a direct
    neighbour is usually left there (it is one hop away anyway), an item
    fetched from the search horizon is always copied.  Draws come from
    the dedicated ``admission-policy`` stream, so enabling the policy
    shifts no other component's random sequence.
    """

    def __init__(self, hop_limit: int, rng: np.random.Generator) -> None:
        super().__init__()
        if hop_limit < 1:
            raise ValueError("hop_limit must be >= 1")
        if rng is None:
            raise ValueError("probcache needs the admission-policy stream")
        self.hop_limit = int(hop_limit)
        self.rng = rng

    def should_cache(
        self, *, cache_full: bool, from_tcg_member: bool, hops: int
    ) -> bool:
        probability = min(1.0, max(1, hops) / self.hop_limit)
        return self._count(float(self.rng.random()) < probability)


class LeaveCopyDownAdmission(AdmissionPolicy):
    """Copy only from a direct neighbour (leave-copy-down).

    LCD creates one new replica per fetch, one hop below the serving
    node, so popular items migrate toward their requesters fetch by fetch
    instead of being replicated along the whole path.  In the flood
    topology "one level down" is the requester itself only when the
    server is a direct neighbour: multi-hop hits are *not* cached (the
    intermediate relays will cache the item when they request it
    themselves).
    """

    def should_cache(
        self, *, cache_full: bool, from_tcg_member: bool, hops: int
    ) -> bool:
        return self._count(hops <= 1)
