"""Census of every independently settable value the program exposes.

ROADMAP item 7's rule — no new option, flag, env var or config field —
as a check: a change that adds one has to edit this file in the same
diff, where a reviewer sees it.  Nothing here tests behaviour; each
knob's own tests do that.
"""

import argparse
import ast
import dataclasses
import re
import sys
from pathlib import Path

from repro.cli import build_parser
from repro.core.config import SimulationConfig
from repro.policies import registry

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_CONFIG = [
    "--access-range", "--cache-size", "--clients", "--data", "--group-size",
    "--no-ndp", "--p-disc", "--requests", "--seed", "--theta", "--update-rate",
]  # fmt: skip

#: subcommand -> its option strings (``-h`` aside).
CLI_OPTIONS = {
    "run": sorted(
        [*_CONFIG, "--admission", "--check", "--peer-policy", "--replacement",
         "--sample-period", "--scheme", "--trace-out"]
    ),  # fmt: skip
    "compare": _CONFIG,
    "sweep": [
        "--attempts", "--cache", "--jobs", "--salvage",
        "--sample-period", "--scale", "--timeout", "--trace-out",
    ],  # fmt: skip
    "trace summarize": [],
    "policies list": ["--namespace"],
    "check golden": ["--fixtures"],
}


def test_config_field_count():
    assert len(dataclasses.fields(SimulationConfig)) == 65


def test_src_line_budget():
    """ROADMAP's standing rule: ``src/`` stays below 16 000 lines."""
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in SRC.rglob("*.py")
    )
    assert lines < 16_000, f"src/ is {lines} lines"


def test_policy_namespaces():
    assert registry.NAMESPACES == ("admission", "replacement", "peer-scoring")


def test_environment_variables_read_by_src():
    """Two variables select behaviour; ``REPRO_FULL`` is looked at only to
    reject it by name (tests/test_experiments.py pins the message)."""
    named = set()
    mentions = 0
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        mentions += len(re.findall(r"\benviron\b|\bgetenv\b", text))
        named.update(re.findall(r"""os\.environ(?:\.get\(|\[)["'](\w+)["']""", text))
    assert named == {"REPRO_PROFILE", "REPRO_JOBS", "REPRO_FULL"}
    # Every access names its variable literally, so none escaped the scan:
    # three reads, and ``repro sweep --scale`` writing REPRO_PROFILE.
    assert mentions == 4


def _leaf_options(parser, prefix=()):
    """``{"sub command": [option strings]}`` for every leaf subcommand."""
    subparsers = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    if not subparsers:
        options = {s for action in parser._actions for s in action.option_strings}
        return {" ".join(prefix): sorted(options - {"-h", "--help"})}
    found = {}
    for action in subparsers:
        for name, child in action.choices.items():
            found.update(_leaf_options(child, (*prefix, name)))
    return found


def test_cli_option_strings():
    assert _leaf_options(build_parser()) == CLI_OPTIONS


def test_third_party_imports_are_declared():
    """What ``src/`` imports, ``pyproject.toml`` declares and the CI test
    job installs: numpy alone."""
    imported = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"repro"}
    assert third_party == {"numpy"}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r"^dependencies = \[(.*?)^\]", pyproject, re.S | re.M).group(1)
    workflow = (ROOT / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    install = re.search(r"pip install (.*)", workflow).group(1).split()  # test job: first
    for name in third_party:
        assert re.search(rf'"{name}\b', declared), f"{name} not in pyproject dependencies"
        assert name in install, f"{name} not installed by the CI test job"
