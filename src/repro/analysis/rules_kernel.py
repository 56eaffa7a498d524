"""DES-kernel discipline rules.

A kernel process is a generator driven by
:class:`~repro.sim.kernel.Process`: the *only* things it may yield are
kernel events, the only clock it may read is ``env.now``, and it must
never block the hosting OS thread (one blocked process stalls the whole
simulated world).  Process bodies are recognised statically as generator
functions that touch an ``env`` (a parameter or name called ``env``, or
a ``.env`` attribute such as ``self.env``):

* ``kernel-blocking-call`` — ``time.sleep``, file/socket/subprocess
  I/O, ``input`` inside a process body;
* ``kernel-stale-now`` — a name bound to ``env.now`` *before* a yield
  being treated as the current time *after* it (passed to
  ``env.timeout`` or equality-compared against a fresh ``env.now``).
  Computing an elapsed time (``env.now - start``) stays legal — that is
  the idiomatic latency measurement.
* ``kernel-hot-alloc`` — per-event object construction (container
  displays, comprehensions, ``list()``-family calls, lambdas) inside a
  loop of a scheduler dispatch method (``run``/``step`` on a class named
  like ``Environment``).  The dispatch loop executes once per simulated
  event — millions of times per run — so every allocation there is paid
  at event rate; genuinely-needed ones carry an explaining pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import LintRule, LintViolation, ModuleSource, register

__all__ = [
    "BlockingCallRule",
    "HotLoopAllocRule",
    "StaleNowRule",
    "allocation",
    "blocking_calls",
    "is_process_generator",
]


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _references_env(function: ast.AST) -> bool:
    if isinstance(function, ast.FunctionDef):
        if any(arg.arg == "env" for arg in function.args.args):
            return True
    for node in _own_nodes(function):
        if isinstance(node, ast.Name) and node.id == "env":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "env":
            return True
    return False


def is_process_generator(function: ast.AST) -> bool:
    """A generator function that touches an ``env``: a kernel process body."""
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(function)
    ) and _references_env(function)


def _process_generators(module: ModuleSource) -> Iterator[ast.FunctionDef]:
    """Generator functions that look like kernel process bodies."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.FunctionDef) and is_process_generator(node):
            yield node


#: Calls that block the hosting thread (resolved dotted names).
_BLOCKING_QUALIFIED_PREFIXES = (
    "time.sleep",
    "os.system",
    "os.popen",
    "subprocess.",
    "socket.",
    "requests.",
    "urllib.request.",
)

#: Bare builtins that block or do I/O.
_BLOCKING_BUILTINS = frozenset({"open", "input"})


def blocking_calls(
    module: ModuleSource, function: ast.AST
) -> Iterator[Tuple[ast.Call, str]]:
    """(call, what it is) for every blocking call in ``function``'s own body.

    The one matcher behind ``kernel-blocking-call`` (process bodies) and
    the blocking kind of ``kernel-transitive-hazard`` (their helpers).
    """
    for node in _own_nodes(function):
        if not isinstance(node, ast.Call):
            continue
        name = module.qualified_name(node.func)
        if name is not None and name.startswith(_BLOCKING_QUALIFIED_PREFIXES):
            yield node, f"blocking call to {name}()"
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in _BLOCKING_BUILTINS
            and node.func.id not in module.imports
        ):
            yield node, f"blocking call to {node.func.id}()"
        elif (
            name is None
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "sleep"
        ):
            yield node, "call to a .sleep() method"


@register
class BlockingCallRule(LintRule):
    """No sleeping or real I/O inside a process body."""

    id = "kernel-blocking-call"
    description = (
        "a blocking call inside a process body stalls every simulated "
        "host at once; simulated delay is env.timeout, and I/O belongs "
        "outside the simulation"
    )
    hint = "yield env.timeout(delay) for delays; hoist I/O out of the process"

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for function in _process_generators(module):
            for node, what in blocking_calls(module, function):
                yield self.violation(module, node, f"{what} in a process body")


def _is_env_now(node: ast.AST) -> bool:
    """True for ``env.now`` / ``self.env.now`` / ``<anything>.env.now``."""
    if not (isinstance(node, ast.Attribute) and node.attr == "now"):
        return False
    value = node.value
    if isinstance(value, ast.Name) and value.id == "env":
        return True
    return isinstance(value, ast.Attribute) and value.attr == "env"


@register
class StaleNowRule(LintRule):
    """A pre-yield ``env.now`` snapshot is not the current time."""

    id = "kernel-stale-now"
    description = (
        "env.now captured before a yield is the *past* after it; passing "
        "the snapshot to env.timeout or equality-comparing it with a "
        "fresh env.now is a time-travel bug"
    )
    hint = "re-read env.now after the yield (env.now - snapshot stays legal)"

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for function in _process_generators(module):
            snapshots = self._snapshot_lines(function)
            if not snapshots:
                continue
            yield_lines = sorted(
                n.lineno
                for n in _own_nodes(function)
                if isinstance(n, (ast.Yield, ast.YieldFrom))
            )
            for name, use in self._stale_uses(function, set(snapshots)):
                assigned = max(
                    (line for line in snapshots[name] if line < use.lineno),
                    default=None,
                )
                if assigned is None:
                    continue
                if any(assigned < y < use.lineno for y in yield_lines):
                    yield self.violation(
                        module,
                        use,
                        f"{name!r} holds env.now from before a yield but is "
                        "used as the current time",
                    )

    @staticmethod
    def _snapshot_lines(function: ast.AST) -> dict:
        """Names assigned exactly ``env.now`` -> their assignment lines."""
        snapshots: dict = {}
        for node in _own_nodes(function):
            if (
                isinstance(node, ast.Assign)
                and _is_env_now(node.value)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                snapshots.setdefault(node.targets[0].id, []).append(node.lineno)
        return snapshots

    @staticmethod
    def _stale_uses(
        function: ast.AST, names: Set[str]
    ) -> Iterator[Tuple[str, ast.AST]]:
        """(name, node) pairs where a snapshot is used as 'the current time'."""
        for node in _own_nodes(function):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr == "timeout":
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in names:
                            yield arg.id, arg
                if node.func.attr == "run":
                    for keyword in node.keywords:
                        if (
                            keyword.arg == "until"
                            and isinstance(keyword.value, ast.Name)
                            and keyword.value.id in names
                        ):
                            yield keyword.value.id, keyword.value
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                has_fresh_now = any(_is_env_now(operand) for operand in operands)
                if not has_fresh_now:
                    continue
                if not all(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
                ):
                    continue
                for operand in operands:
                    if isinstance(operand, ast.Name) and operand.id in names:
                        yield operand.id, operand


#: Builtin constructors whose call in a dispatch loop allocates per event.
_ALLOCATING_BUILTINS = frozenset({"dict", "frozenset", "list", "set", "tuple"})


def allocation(module: ModuleSource, node: ast.AST) -> Optional[str]:
    """What ``node`` constructs each time it is evaluated (None: nothing).

    The one classifier behind ``kernel-hot-alloc`` (the dispatch loop)
    and the allocation kind of ``kernel-transitive-hazard`` (its helpers).
    """
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
        return "comprehension"
    if isinstance(node, ast.GeneratorExp):
        return "generator expression"
    if isinstance(node, (ast.List, ast.Set, ast.Dict)):
        return f"{type(node).__name__.lower()} display"
    if isinstance(node, ast.Lambda):
        return "lambda"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _ALLOCATING_BUILTINS
        and node.func.id not in module.imports
    ):
        return f"{node.func.id}() call"
    return None


def _dispatch_methods(module: ModuleSource) -> Iterator[ast.FunctionDef]:
    """``run``/``step`` methods of scheduler classes (name ~ Environment)."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if "Environment" not in node.name:
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name in ("run", "step"):
                yield item


def _loop_bodies(function: ast.FunctionDef) -> Iterator[ast.AST]:
    """Every node inside a For/While loop of the function's own body."""
    for node in _own_nodes(function):
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for child in node.body + node.orelse:
            yield from ast.walk(child)


@register
class HotLoopAllocRule(LintRule):
    """No per-event object construction in the dispatch loop."""

    id = "kernel-hot-alloc"
    description = (
        "the scheduler dispatch loop runs once per simulated event; an "
        "object constructed inside it is allocated (and collected) at "
        "event rate — hoist it, reuse a preallocated buffer, or recycle "
        "through a free list"
    )
    hint = (
        "hoist the allocation out of the loop or reuse a buffer; a "
        "deliberate per-event allocation takes "
        "# simlint: allow[kernel-hot-alloc] reason=..."
    )

    def check(self, module: ModuleSource) -> Iterator[LintViolation]:
        for function in _dispatch_methods(module):
            seen: Set[int] = set()
            for node in _loop_bodies(function):
                if id(node) in seen:
                    continue  # nested loops revisit inner bodies
                seen.add(id(node))
                what = allocation(module, node)
                if what is not None:
                    yield self.violation(
                        module, node, f"{what} allocates per event"
                    )
