"""Seeded policy-rule violations (simlint test fixture, never imported)."""


def wires_admission_directly():
    return GroCoCaAdmission()  # MARK:policy-direct-admission


def wires_replacement_directly(cache):
    return LRUMinReplacement(cache, 10)  # MARK:policy-direct-replacement


def wires_through_attribute(module, cache):
    return module.PopularityRankReplacement(cache)  # MARK:policy-direct-attribute


def resolves_through_registry(config, cache):
    # ok: the sanctioned path — the factory resolves the registered builder
    from repro.policies.factory import build_replacement

    return build_replacement(config, cache)


def resolves_by_key(namespace, key):
    # ok: explicit registry resolution is the other sanctioned path
    from repro.policies import registry

    return registry.resolve(namespace, key)
