"""The public API surface: everything advertised must exist and work,
and everything that exists must be reached by something that runs."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import FIGURES

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

sys.path.insert(0, str(REPO_ROOT / "tools"))
from cold_start import cold_start  # noqa: E402


def test_top_level_exports():
    """Every exported name is the object its defining module holds, and
    ``dir``, ``import *`` and an unknown name behave as for a plain module."""
    assert repro.__all__ == [*repro._EXPORTS, "__version__"]
    for name, module in repro._EXPORTS.items():
        assert getattr(repro, name) is getattr(importlib.import_module(module), name)
    assert repro.__version__
    assert set(repro.__all__) <= set(dir(repro))
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        _ = repro.no_such_name


def test_a_run_loads_no_observer_on_import():
    """A fresh interpreter that imports what a perfbench child imports
    compiles neither the invariant oracle nor the tracer (nor ``csv``):
    ``repro``'s top-level names resolve on first use."""
    _, modules = cold_start()
    loaded = [
        name
        for name in modules
        if name == "csv" or name.startswith(("repro.check", "repro.obs"))
    ]
    assert "repro.core.simulation" in modules
    assert not loaded, f"loaded by the run path: {loaded}"


def test_subpackage_exports_resolve():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.{name}"


def _module_files():
    """Dotted name -> source file for every module under ``src/repro``."""
    files = {}
    for path in PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


def _imported_names(path):
    """Every dotted name ``path`` may import (``from a import b`` gives
    both ``a`` and ``a.b``), function-local imports included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: the tree imports by absolute name"
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_every_module_is_reached():
    """No orphan packages: the static import closure of the CLI entry
    point is the whole of ``src/repro``.  A module that only a tool or a
    test runs lives in ``tools/`` or ``tests/``; ``repro.analysis``, which
    only an example runs, is the one exception."""
    files = _module_files()
    reached = set()
    pending = [files["repro.__main__"]]
    while pending:
        for imported in _imported_names(pending.pop()):
            parts = imported.split(".")
            for end in range(1, len(parts) + 1):  # parent packages run too
                module = ".".join(parts[:end])
                if module in files and module not in reached:
                    reached.add(module)
                    pending.append(files[module])
    unreached = sorted(set(files) - reached - {"repro.__main__"})
    assert unreached == ["repro.analysis"], f"not reached from the CLI: {unreached}"


def test_every_results_file_has_a_producer():
    """A ``results/*.txt`` is written by a bench: a ``FIGURES`` row's stem
    by the figure bench, which runs every key of the table, any other file
    only if a bench names it."""
    benches = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted((REPO_ROOT / "benchmarks").glob("*.py"))
    )
    assert '@pytest.mark.parametrize("key", list(FIGURES))' in benches
    figure_stems = {figure.stem for figure in FIGURES.values()}
    orphans = [
        path.name
        for path in sorted((REPO_ROOT / "results").glob("*.txt"))
        if path.stem not in figure_stems and path.stem not in benches
    ]
    assert not orphans, f"results files nothing produces: {orphans}"


def test_readme_quickstart_snippet_runs():
    """The README's quick-start must stay runnable verbatim (small scale)."""
    from repro import CachingScheme, SimulationConfig, run_simulation

    config = SimulationConfig(
        scheme=CachingScheme.GC,
        n_clients=8,
        n_data=200,
        access_range=40,
        cache_size=8,
        group_size=4,
        measure_requests=5,
        warmup_min_time=30.0,
        warmup_max_time=60.0,
        ndp_enabled=False,
        seed=42,
    )
    results = run_simulation(config)
    assert results.requests >= 40
    assert 0 <= results.gch_ratio <= 100
    assert results.access_latency >= 0


def test_docstrings_everywhere_public():
    """Every public module, class and function carries a doc comment."""
    import inspect

    missing = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        if not module.__doc__:
            missing.append(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    missing.append(f"{info.name}.{name}")
    assert not missing, f"undocumented public items: {missing}"
