"""The policy tables' contract.

Unknown keys and namespaces fail with errors that list the valid names
verbatim, every row carries its catalogue text, the ``needs_rng`` column
says which policies draw random numbers, and docs/POLICIES.md documents
exactly the keys the tables hold.
"""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import CachingScheme, SimulationConfig
from repro.net.health import PeerHealthTracker
from repro.policies import registry

POLICIES_DOC = Path(__file__).resolve().parent.parent / "docs" / "POLICIES.md"

# Throwaway keys: lowercase slugs prefixed so they can never collide with
# a table key (every key is a bare word like "lru-min").
_slug = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
    min_size=1,
    max_size=12,
)
_tmp_key = _slug.map(lambda s: f"tmp-{s}")
_namespace = st.sampled_from(registry.NAMESPACES)


@given(namespace=_namespace, key=_tmp_key)
def test_unknown_key_error_lists_available_keys_verbatim(namespace, key):
    keys = registry.available(namespace)
    assert key not in keys  # tmp- prefix guarantees this
    with pytest.raises(KeyError) as err:
        registry.describe(namespace, key)
    assert err.value.args[0] == (
        f"unknown {namespace} policy {key!r}; "
        f"available: {', '.join(keys)}"
    )


@given(key=_slug)
def test_unknown_namespace_error_lists_namespaces(key):
    bogus = f"ns-{key}"
    assert bogus not in registry.NAMESPACES
    with pytest.raises(KeyError) as err:
        registry.available(bogus)
    assert err.value.args[0] == (
        f"unknown policy namespace {bogus!r}; "
        f"available: {', '.join(registry.NAMESPACES)}"
    )


#: namespace -> the SimulationConfig field that picks its key.
POLICY_FIELDS = {
    "admission": "admission_policy",
    "replacement": "replacement_policy",
    "peer-scoring": "peer_policy",
}


def _accepted_keys(namespace, scheme):
    accepted = []
    for key in registry.available(namespace):
        try:
            SimulationConfig(scheme=scheme, **{POLICY_FIELDS[namespace]: key})
        except ValueError:
            continue
        accepted.append(key)
    return accepted


@pytest.mark.parametrize("namespace", registry.NAMESPACES)
def test_every_policy_field_offers_a_choice(namespace):
    """A namespace earns its config field by holding a real alternative:
    under some scheme the config accepts two or more distinct keys.  (The
    retired ``discovery`` namespace accepted exactly one per scheme.)"""
    assert max(len(_accepted_keys(namespace, s)) for s in CachingScheme) >= 2


def test_entries_metadata_matches_describe():
    for namespace, table in registry.POLICIES.items():
        assert registry.available(namespace) == sorted(table)
        for key, info in table.items():
            assert registry.describe(namespace, key) is info
            assert registry.resolve(namespace, key) is info.value
            assert info.summary, f"{namespace}:{key} missing summary"
            assert info.citation, f"{namespace}:{key} missing citation"


def test_every_namespace_has_builtin_policies():
    for namespace in registry.NAMESPACES:
        assert registry.available(namespace), namespace


def test_needs_rng_marks_exactly_the_policies_that_draw():
    """A row without ``needs_rng`` runs with no stream; a row with it
    refuses to, so the column cannot drift from the code."""
    config = SimulationConfig()
    for info in registry.POLICIES["admission"].values():
        if info.needs_rng:
            with pytest.raises(ValueError, match="stream"):
                info.value(config, None)
        else:
            info.value(config, None).should_cache(
                cache_full=True, from_tcg_member=False, hops=2
            )
    replies = [{"peer": 1, "path": [0, 1]}, {"peer": 2, "path": [0, 2]}]
    for key, info in registry.POLICIES["peer-scoring"].items():
        tracker = PeerHealthTracker(
            breaker_threshold=0, breaker_cooldown=1.0, policy=key
        )
        if info.needs_rng:
            with pytest.raises(RuntimeError, match="stream"):
                tracker.select(replies, 0.0)
        else:
            assert tracker.select(replies, 0.0) in replies
    assert not any(
        info.needs_rng for info in registry.POLICIES["replacement"].values()
    )


def _catalogue_rows(text):
    """``(namespace, key)`` pairs of the doc's catalogue table: rows whose
    second cell names a namespace, one pair per backticked key."""
    rows = set()
    for line in text.splitlines():
        if not line.lstrip().startswith("|"):
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) > 1 and cells[1] in registry.NAMESPACES:
            rows.update((cells[1], key) for key in re.findall(r"`([^`]+)`", cells[0]))
    return rows


def test_policies_doc_documents_exactly_the_tables():
    """Every key is mentioned in docs/POLICIES.md, and every catalogue
    row names a key the tables hold."""
    text = POLICIES_DOC.read_text(encoding="utf-8")
    mentioned = set(re.findall(r"`([^`\n]+)`", text))
    for namespace, table in registry.POLICIES.items():
        for key in table:
            assert key in mentioned, f"{namespace}:{key} is undocumented"
    catalogue = _catalogue_rows(text)
    assert catalogue, "docs/POLICIES.md has no catalogue rows"
    for namespace, key in sorted(catalogue):
        assert key in registry.POLICIES[namespace], (
            f"docs/POLICIES.md documents {namespace} policy {key!r}, "
            "which no table holds"
        )
