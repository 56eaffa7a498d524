"""simlint applied to the shipped tree: clean, with nothing excused off-site."""

import io
import shutil
from pathlib import Path

import pytest

from repro.analysis.runner import run_lint
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"


def test_shipped_tree_is_clean():
    stream = io.StringIO()
    code = run_lint([SRC], stream=stream)
    assert code == 0, f"simlint found violations:\n{stream.getvalue()}"


def test_injected_violation_fails_with_rule_and_line(tmp_path):
    # Copy a real source file and inject a bare generator construction.
    victim = tmp_path / "workload_copy.py"
    shutil.copyfile(SRC / "data" / "workload.py", victim)
    lines = victim.read_text(encoding="utf-8").splitlines()
    lines.append("INJECTED = __import__('numpy').random.default_rng(1)")
    # Resolves through an import alias too, like real offending code would.
    lines.insert(0, "import numpy as np")
    lines.append("ALIASED = np.random.default_rng(2)")
    victim.write_text("\n".join(lines) + "\n", encoding="utf-8")
    injected_line = len(lines)

    stream = io.StringIO()
    code = run_lint([victim], stream=stream)
    output = stream.getvalue()
    assert code == 1
    assert "no-direct-rng" in output
    assert f":{injected_line}:" in output


def test_cli_lint_subcommand_paths(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nT = time.time()\n")
    assert main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "no-wall-clock" in out

    assert main(["lint", str(bad), "--format", "json"]) == 1
    assert '"no-wall-clock"' in capsys.readouterr().out


def test_cli_lint_rules_catalogue(capsys):
    assert main(["lint", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "no-direct-rng" in out
    assert "meta rules" in out


def test_cli_lint_usage_errors_exit_2(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    # The pragma is the only way to excuse a finding and there is no cache:
    # the flags that used to drive a second mechanism are usage errors.
    for flag in (
        "--baseline=b.json",
        "--no-baseline",
        "--update-baseline",
        "--prune-baseline",
        "--no-cache",
    ):
        with pytest.raises(SystemExit) as usage:
            main(["lint", str(clean), flag])
        assert usage.value.code == 2, flag
