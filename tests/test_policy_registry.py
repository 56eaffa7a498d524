"""Property tests for the policy plugin registry (PR 8 satellite).

Hypothesis drives the registry's contract: duplicate keys always raise,
unknown-key errors list the valid keys verbatim, resolution never depends
on registration order, and ``temporary_policy`` cleans up even when the
``with`` block raises.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachingScheme, SimulationConfig
from repro.policies import registry

# Throwaway keys: lowercase slugs prefixed so they can never collide with
# a builtin policy key (all builtins are bare words like "lru-min").
_slug = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789",
    min_size=1,
    max_size=12,
)
_tmp_key = _slug.map(lambda s: f"tmp-{s}")
_namespace = st.sampled_from(registry.NAMESPACES)


@given(namespace=_namespace, key=_tmp_key)
def test_duplicate_registration_raises_value_error(namespace, key):
    with registry.temporary_policy(namespace, key, object()):
        with pytest.raises(ValueError) as err:
            registry.register_value(namespace, key, object())
        assert str(err.value) == f"duplicate {namespace} policy {key!r}"
    # the duplicate attempt must not have clobbered or removed the entry
    assert key not in registry.available(namespace)


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


@given(
    namespace=_namespace,
    keys=st.lists(_tmp_key, min_size=2, max_size=6, unique=True),
    data=st.data(),
)
@settings(max_examples=50)
def test_resolution_is_registration_order_invariant(namespace, keys, data):
    """Whatever order keys register in, lookups see the same registry."""
    order = data.draw(st.permutations(keys))
    values = {key: object() for key in keys}
    baseline = registry.available(namespace)
    registered = []
    try:
        for key in order:
            registry.register_value(namespace, key, values[key])
            registered.append(key)
        assert registry.available(namespace) == sorted(baseline + keys)
        for key in keys:
            assert registry.resolve(namespace, key) is values[key]
        assert [
            info.key
            for info in registry.entries(namespace)
            if info.key in values
        ] == sorted(keys)
    finally:
        for key in registered:
            registry._REGISTRY[namespace].pop(key, None)


@given(namespace=_namespace, key=_tmp_key)
def test_temporary_policy_cleans_up_on_exception(namespace, key):
    marker = object()
    with pytest.raises(RuntimeError):
        with registry.temporary_policy(namespace, key, marker) as info:
            assert info.value is marker
            assert key in registry.available(namespace)
            raise RuntimeError("boom")
    assert key not in registry.available(namespace)


@given(key=st.one_of(st.just(""), st.integers(), st.none()))
def test_non_string_or_empty_key_is_rejected(key):
    with pytest.raises(ValueError, match="policy key must be"):
        registry.register_value("admission", key, object())


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
    for namespace in registry.NAMESPACES:
        infos = registry.entries(namespace)
        assert [info.key for info in infos] == registry.available(namespace)
        for info in infos:
            assert registry.describe(namespace, info.key) == info
            assert info.namespace == namespace
            assert info.summary, f"{namespace}:{info.key} missing summary"


def test_register_decorator_fails_fast_on_unknown_namespace():
    with pytest.raises(KeyError):
        registry.register("not-a-namespace", "key")


def test_every_namespace_has_builtin_policies():
    for namespace in registry.NAMESPACES:
        assert registry.available(namespace), namespace
