"""Resolution of a config's policy choices through the tables.

The bridge between :class:`~repro.core.config.SimulationConfig` and
:mod:`repro.policies.registry`: every scheme has a row of default keys
(:data:`SCHEME_DEFAULTS`), an explicit ``*_policy`` key overrides its
scheme's row, and ``""`` means *this scheme's default* — so a config
that names no key follows its scheme through ``with_scheme``, which is
how ``compare_schemes`` runs one config under all three.

Builder contracts per namespace (what :func:`registry.resolve` returns):

========== =============================================================
admission   ``builder(config, rng) -> AdmissionPolicy``; ``rng`` is the
            shared ``admission-policy`` stream (None unless the resolved
            row has ``needs_rng``)
replacement ``builder(config, cache, signature_scheme, peer_signature)
            -> ReplacementPolicy``
peer-scoring ``(candidates, tracker) -> reply`` scoring callable (see
            :mod:`repro.policies.scoring`)
========== =============================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.policies import registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    import numpy as np

    from repro.core.config import SimulationConfig

__all__ = [
    "SCHEME_DEFAULTS",
    "build_admission",
    "build_replacement",
    "needs_rng",
    "resolved_policy_keys",
]

#: ``CachingScheme`` value -> the keys that scheme runs when the config
#: names none: LC and CC cache everything under plain LRU, GroCoCa runs
#: Section IV-E's admission control and cooperative replacement.
SCHEME_DEFAULTS: Dict[str, Dict[str, str]] = {
    "LC": {"admission": "always", "replacement": "lru"},
    "CC": {"admission": "always", "replacement": "lru"},
    "GC": {"admission": "grococa", "replacement": "grococa"},
}


def resolved_policy_keys(config: "SimulationConfig") -> Dict[str, str]:
    """namespace -> the key a run uses: the explicit key, else the
    scheme's row of :data:`SCHEME_DEFAULTS`."""
    defaults = SCHEME_DEFAULTS[config.scheme.value]
    return {
        "admission": config.admission_policy or defaults["admission"],
        "replacement": config.replacement_policy or defaults["replacement"],
        "peer-scoring": config.peer_policy,
    }


def needs_rng(config: "SimulationConfig", namespace: str) -> bool:
    """Whether the policy a run resolves in ``namespace`` draws random numbers."""
    key = resolved_policy_keys(config)[namespace]
    return registry.describe(namespace, key).needs_rng


def build_admission(
    config: "SimulationConfig", rng: "Optional[np.random.Generator]" = None
):
    """The admission policy instance for one client."""
    key = resolved_policy_keys(config)["admission"]
    return registry.resolve("admission", key)(config, rng)


def build_replacement(
    config: "SimulationConfig",
    cache,
    *,
    signature_scheme=None,
    peer_signature=None,
):
    """The replacement policy instance for one client (and its cache)."""
    key = resolved_policy_keys(config)["replacement"]
    builder = registry.resolve("replacement", key)
    return builder(config, cache, signature_scheme, peer_signature)
