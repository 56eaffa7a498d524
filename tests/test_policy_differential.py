"""Differential registry test: scheme defaults vs explicit policy keys.

For every golden case the empty ``*_policy`` config fields resolve
through the scheme's row of :data:`SCHEME_DEFAULTS`.  Spelling those same
keys out explicitly must route every decision through the registry
builders and still replay bit-identically — proving the registry
indirection adds no behavioural surface.  A deliberately different key
must diverge, so the comparison is known to have teeth.
"""

import pytest

from repro.check.golden import GOLDEN_CASES, results_to_dict
from repro.core.config import CachingScheme
from repro.core.simulation import run_simulation
from repro.policies.factory import SCHEME_DEFAULTS, resolved_policy_keys

CASES = sorted(GOLDEN_CASES)


def explicit_config(config):
    """The same config with its scheme's default keys spelled out."""
    row = SCHEME_DEFAULTS[config.scheme.value]
    return config.replace(
        admission_policy=row["admission"],
        replacement_policy=row["replacement"],
    )


@pytest.mark.parametrize("name", CASES)
def test_explicit_keys_replay_legacy_run_bit_identically(name):
    default = GOLDEN_CASES[name]
    explicit = explicit_config(default)
    # the rewrite really changed the config and really pinned the keys
    assert explicit != default
    assert explicit.admission_policy != ""
    assert resolved_policy_keys(explicit) == resolved_policy_keys(default)

    baseline = results_to_dict(run_simulation(default))
    registry_run = results_to_dict(run_simulation(explicit))
    drift = {
        field: (baseline[field], registry_run.get(field))
        for field in baseline
        if baseline[field] != registry_run.get(field)
    }
    assert not drift, f"{name}: explicit keys diverged on {drift}"


def test_differential_harness_detects_a_real_policy_change():
    """A genuinely different replacement key must not replay the golden."""
    default = GOLDEN_CASES["gc-small"]
    swapped = default.replace(replacement_policy="lru-min")
    assert resolved_policy_keys(swapped) != resolved_policy_keys(default)
    baseline = results_to_dict(run_simulation(default))
    changed = results_to_dict(run_simulation(swapped))
    assert baseline != changed


@pytest.mark.parametrize("name", CASES)
def test_legacy_mapping_matches_scheme_semantics(name):
    config = GOLDEN_CASES[name]
    assert set(SCHEME_DEFAULTS) == {scheme.value for scheme in CachingScheme}
    keys = resolved_policy_keys(config)
    if config.scheme is CachingScheme.GC:
        assert keys["admission"] == "grococa"
        assert keys["replacement"] == "grococa"
    else:
        assert keys["admission"] == "always"
        assert keys["replacement"] == "lru"
    assert keys["peer-scoring"] == config.peer_policy
