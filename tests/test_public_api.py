"""The public API surface: everything advertised must exist and work,
and everything that exists must be reached by something that runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro
from repro.experiments import FIGURES

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), name
    assert repro.__version__


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
    point, the tools and the examples (CI runs every one) is the whole of
    ``src/repro``.  ``repro.analysis`` is reached from an example only."""
    files = _module_files()
    reached = set()
    pending = [
        files["repro.__main__"],
        *(REPO_ROOT / "tools").glob("*.py"),
        *(REPO_ROOT / "examples").glob("*.py"),
    ]
    while pending:
        for imported in _imported_names(pending.pop()):
            parts = imported.split(".")
            for end in range(1, len(parts) + 1):  # parent packages run too
                module = ".".join(parts[:end])
                if module in files and module not in reached:
                    reached.add(module)
                    pending.append(files[module])
    unreached = sorted(set(files) - reached - {"repro.__main__"})
    assert not unreached, f"imported by no command or tool: {unreached}"


def test_every_results_file_has_a_producer():
    """A ``results/*.txt`` is written by a bench: a ``FIGURES`` row's stem
    counts only if some bench calls ``run_figure`` with the row's key, any
    other file only if a bench names it."""
    benches = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted((REPO_ROOT / "benchmarks").glob("*.py"))
    )
    run = set(re.findall(r"run_figure\(\s*\"([^\"]+)\"", benches))
    figure_stems = {figure.stem: key for key, figure in FIGURES.items()}
    orphans = [
        path.name
        for path in sorted((REPO_ROOT / "results").glob("*.txt"))
        if (
            figure_stems[path.stem] not in run
            if path.stem in figure_stems
            else path.stem not in benches
        )
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
