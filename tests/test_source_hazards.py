"""Source-level hazards that no single simulated run shows.

Bit-identical runs from a :class:`~repro.core.config.SimulationConfig`
hold only while every random draw comes from a named
:class:`~repro.sim.random.RandomStreams` stream, no simulated state
reads the host clock, and nothing in the simulated packages blocks the
one thread every simulated host runs on.  The DES kernel's dispatch loop
runs once per simulated event, so an object built there is allocated at
event rate.  And a config knob or result metric that no other module
reads, or that the docs never name, is drift between code and paper.

Each test scans ``src/repro`` with :mod:`ast`; the table in
docs/TESTING.md ("Static analysis") maps every hazard to its gate.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.core.metrics import Results

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"

#: Packages whose code runs inside simulated time.
SIMULATED = ("sim", "core", "net", "mobility", "signatures", "data", "cache", "policies")
#: Modules whose import in simulated code would block or leave the process.
BLOCKING_MODULES = {"time", "os", "subprocess", "socket", "urllib", "requests"}
BLOCKING_BUILTINS = {"open", "input"}
#: What ``list()`` and its family build when called.
ALLOCATING_BUILTINS = {"dict", "frozenset", "list", "set", "tuple"}
ALLOCATING_NODES = (
    ast.List, ast.Set, ast.Dict,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    ast.Lambda,
)  # fmt: skip


def _sources():
    """``{path relative to src/repro: parsed module}``, every module."""
    return {
        path.relative_to(PACKAGE).as_posix(): ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }


SOURCES = _sources()


def _imported_modules(tree):
    """Every absolute module name ``tree`` imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _aliases(tree):
    """Local name -> dotted name it was imported as."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node):
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _called_names(tree):
    """(line, fully qualified dotted name) of every call through an import."""
    aliases = _aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is None:
                continue
            head, _, rest = name.partition(".")
            if head in aliases:
                yield node.lineno, ".".join(filter(None, (aliases[head], rest)))


def test_numpy_generators_are_built_only_in_sim_random():
    """Every generator comes from RandomStreams' seed derivation; an
    annotation such as ``np.random.Generator`` is not a call."""
    found = [
        f"{path}:{line}: {name}()"
        for path, tree in SOURCES.items()
        if path != "sim/random.py"
        for line, name in _called_names(tree)
        if name.startswith("numpy.random.")
    ]
    assert found == []


def test_only_the_profile_module_reads_the_host_clock():
    found = sorted(
        f"{path}: imports {module}"
        for path, tree in SOURCES.items()
        for module in _imported_modules(tree)
        if module.split(".")[0] in ("time", "datetime")
    )
    assert found == ["sim/profile.py: imports time"]


@pytest.mark.parametrize("package", SIMULATED)
def test_simulated_code_makes_no_blocking_call(package):
    """No sleep, file, socket or subprocess I/O where simulated time runs:
    a blocked call stalls every simulated host at once.  The profile
    module's clock import is the one exception (see the test above)."""
    found = []
    for path, tree in SOURCES.items():
        if path.split("/")[0] != package:
            continue
        for module in _imported_modules(tree):
            root = module.split(".")[0]
            if root in BLOCKING_MODULES and (path, root) != ("sim/profile.py", "time"):
                found.append(f"{path}: imports {module}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in BLOCKING_BUILTINS:
                found.append(f"{path}:{node.lineno}: calls {func.id}()")
            elif isinstance(func, ast.Attribute) and func.attr == "sleep":
                found.append(f"{path}:{node.lineno}: calls .sleep()")
    assert found == []


def _allocates(node):
    """True when evaluating ``node`` builds a new object."""
    if isinstance(node, ALLOCATING_NODES):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ALLOCATING_BUILTINS
    )


def test_kernel_dispatch_loop_allocates_nothing_per_event():
    """The loops of ``Environment.run``/``step`` build no container,
    comprehension or lambda, and neither do the ``kernel.py`` methods
    they call (``Event._process``)."""
    tree = SOURCES["sim/kernel.py"]
    functions = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            functions.setdefault(node.name, []).append(node)
    environment = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Environment"
    )
    dispatch = [
        node
        for node in environment.body
        if isinstance(node, ast.FunctionDef) and node.name in ("run", "step")
    ]
    assert [node.name for node in dispatch] == ["step", "run"]
    hot = []
    helpers = set()
    for method in dispatch:
        for node in ast.walk(method):
            if isinstance(node, (ast.For, ast.While)):
                hot.extend(
                    (method.name, inner)
                    for child in node.body + node.orelse
                    for inner in ast.walk(child)
                )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in functions
            ):
                helpers.add(node.func.attr)
    assert helpers == {"_process"}
    for name in sorted(helpers):
        hot.extend(
            (name, inner)
            for helper in functions[name]
            for inner in ast.walk(helper)
            if inner is not helper
        )
    found = sorted(
        {
            f"{where}:{node.lineno}: {type(node).__name__}"
            for where, node in hot
            if _allocates(node)
        }
    )
    assert found == []


def test_only_the_kernel_assigns_the_clock():
    """``Environment.now`` is a plain slot so that reading it costs no
    call; nothing stops a write, so nothing outside the kernel may make
    one (a stray ``env.now = ...`` would move simulated time under the
    queue's ``(when, seq)`` order)."""
    found = sorted(
        f"{path}:{node.lineno}: assigns .now"
        for path, tree in SOURCES.items()
        if path != "sim/kernel.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for element in ast.walk(target)
        if isinstance(element, ast.Attribute) and element.attr == "now"
    )
    assert found == []


#: The trace contract reconciles ``Results`` counters with a timeline
#: from outside ``src/``, beside the tool that runs it.
TRACE_CONTRACT = ast.parse(
    (ROOT / "tools" / "trace_contract.py").read_text(encoding="utf-8")
)


def _fields_read_elsewhere(names, defining):
    """The ``names`` some module other than ``defining`` (or the trace
    contract) reads, as an attribute or as a string (``getattr``,
    ``as_dict`` keys, columns)."""
    read = set()
    readers = [tree for path, tree in SOURCES.items() if path != defining]
    for tree in [*readers, TRACE_CONTRACT]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in names:
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and node.value in names:
                read.add(node.value)
    return read


@pytest.mark.parametrize(
    "cls, defining",
    [(SimulationConfig, "core/config.py"), (Results, "core/metrics.py")],
    ids=["SimulationConfig", "Results"],
)
def test_every_config_and_result_field_is_read_and_documented(cls, defining):
    """A knob no other module reads is silently ignored; a knob or metric
    neither DESIGN.md nor EXPERIMENTS.md names cannot be found."""
    names = {spec.name for spec in dataclasses.fields(cls)}
    docs = "\n".join(
        (ROOT / name).read_text(encoding="utf-8")
        for name in ("DESIGN.md", "EXPERIMENTS.md")
    )
    documented = set(re.findall(r"[A-Za-z_]\w*", docs)) & names
    assert sorted(names - _fields_read_elsewhere(names, defining)) == []
    assert sorted(names - documented) == []
