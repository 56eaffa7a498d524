"""Determinism rules: all randomness through RandomStreams, no wall clock.

The repo's headline guarantee — bit-identical runs from a
:class:`~repro.core.config.SimulationConfig` — holds only while every
stochastic draw flows from :class:`~repro.sim.random.RandomStreams`
named streams and no simulated state ever observes the host clock.
These rules turn that convention into an enforced contract:

* ``no-direct-rng`` — constructing numpy generators
  (``np.random.default_rng``, legacy ``RandomState``/module-level
  draws, raw bit generators) anywhere but :mod:`repro.sim.random`;
* ``no-wall-clock`` — ``time.time``/``perf_counter``/
  ``datetime.now``-family calls outside the profiling allowlist;
* ``set-iteration-order`` — iterating a ``set`` directly, which feeds
  hash-order into whatever the loop does (scheduling, message fan-out,
  membership deltas); iterate ``sorted(...)`` instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.engine import LintRule, LintViolation, ModuleSource, register

__all__ = [
    "NoDirectRngRule",
    "NoWallClockRule",
    "SetIterationOrderRule",
]


def _calls(module: ModuleSource) -> Iterator[ast.Call]:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield node


@register
class NoDirectRngRule(LintRule):
    """numpy generators are built in exactly one place: repro.sim.random."""

    id = "no-direct-rng"
    description = (
        "numpy.random generators constructed outside repro.sim.random "
        "bypass the named-stream seed derivation"
    )
    hint = (
        "take an np.random.Generator parameter, or derive one via "
        "RandomStreams(seed).stream('<component>')"
    )
    allow_modules = ("repro.sim.random",)

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for call in _calls(module):
            name = module.qualified_name(call.func)
            if name is not None and name.startswith("numpy.random."):
                yield self.violation(module, call, f"call to {name}()")


#: Host-clock callables banned outside the profiling allowlist.  The
#: ``datetime`` entries cover both ``import datetime`` (datetime.datetime.now)
#: and ``from datetime import datetime`` (resolves to the same dotted name).
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class NoWallClockRule(LintRule):
    """Simulated state must never observe the host clock."""

    id = "no-wall-clock"
    description = (
        "wall-clock reads make runs machine-dependent; simulated time is "
        "env.now, and profiling belongs in the allowlisted profile module"
    )
    hint = "use env.now for simulated time; profiling code needs an allow pragma"
    allow_modules = ("repro.sim.profile",)

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for call in _calls(module):
            name = module.qualified_name(call.func)
            if name in _WALL_CLOCK_CALLS:
                yield self.violation(module, call, f"call to {name}()")


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _scopes(module: ModuleSource) -> Iterator[ast.AST]:
    yield module.tree
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _set_bindings(scope: ast.AST) -> Dict[str, bool]:
    """Names bound in ``scope`` whose every assignment is a set expression."""
    bindings: Dict[str, bool] = {}
    for node in ast.walk(scope):
        if node is not scope and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # inner scopes are visited on their own
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    is_set = _is_set_expression(node.value)
                    if target.id in bindings:
                        bindings[target.id] = bindings[target.id] and is_set
                    else:
                        bindings[target.id] = is_set
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            bindings[node.target.id] = False
    return {name: True for name, is_set in bindings.items() if is_set}


@register
class SetIterationOrderRule(LintRule):
    """Iterating a set injects hash order into whatever consumes the loop."""

    id = "set-iteration-order"
    description = (
        "set iteration order is an implementation detail of the hash "
        "table; feeding it into scheduling or message ordering breaks "
        "cross-version reproducibility"
    )
    hint = "iterate sorted(<set>) (or keep the collection a list/dict)"

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for scope in _scopes(module):
            set_names = _set_bindings(scope)
            for node in ast.walk(scope):
                if node is not scope and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for iter_node in _iteration_sites(node):
                    if _is_set_expression(iter_node):
                        yield self.violation(
                            module, iter_node, "iteration over a set expression"
                        )
                    elif (
                        isinstance(iter_node, ast.Name)
                        and iter_node.id in set_names
                    ):
                        yield self.violation(
                            module,
                            iter_node,
                            f"iteration over set {iter_node.id!r}",
                        )


def _iteration_sites(node: ast.AST) -> Tuple[Optional[ast.AST], ...]:
    """The expressions a statement/expression iterates over, if any."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return (node.iter,)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return tuple(generator.iter for generator in node.generators)
    return ()
