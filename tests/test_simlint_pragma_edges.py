"""Pragma suppression-window edge cases.

The window is the anchor node's full line span — multiline statements
are suppressible from any of their lines, decorated defs from the
decorator lines — plus ``allow-file`` anywhere (including line 1).
"""

import ast
import io

from repro.analysis import engine
from repro.analysis.engine import ModuleSource, ProjectRule, lint_source
from repro.analysis.runner import run_lint


def lint_text(tmp_path, text):
    path = tmp_path / "mod.py"
    path.write_text(text)
    return lint_source(ModuleSource.from_path(path))


# -- multiline statements -----------------------------------------------------


def test_pragma_on_last_line_of_multiline_statement(tmp_path):
    found = lint_text(
        tmp_path,
        "import time\n"
        "T = time.time(\n"
        ")  # simlint: allow[no-wall-clock] reason=profiling only\n",
    )
    assert found == []


def test_pragma_on_first_line_of_multiline_statement(tmp_path):
    found = lint_text(
        tmp_path,
        "import time\n"
        "T = time.time(  # simlint: allow[no-wall-clock] reason=profiling only\n"
        ")\n",
    )
    assert found == []


def test_pragma_outside_the_statement_does_not_suppress(tmp_path):
    found = lint_text(
        tmp_path,
        "import time\n"
        "# simlint: allow[no-wall-clock] reason=wrong line\n"
        "T = time.time()\n",
    )
    rules = {v.rule for v in found}
    assert "no-wall-clock" in rules
    assert "pragma-unused" in rules


# -- first line of the file ---------------------------------------------------


def test_allow_file_pragma_on_line_one(tmp_path):
    found = lint_text(
        tmp_path,
        "# simlint: allow-file[no-wall-clock] reason=profiling module\n"
        "import time\n"
        "T = time.time()\n"
        "U = time.monotonic()\n",
    )
    assert found == []


def test_violation_on_line_one_is_suppressible(tmp_path):
    found = lint_text(
        tmp_path,
        "T = __import__('time').time()"
        "  # simlint: allow[no-wall-clock] reason=one-liner\n",
    )
    assert all(v.rule != "no-wall-clock" for v in found)


# -- decorated defs (project-scope anchor includes decorator lines) -----------


class DecoratedDefRule(ProjectRule):
    """Test-only project rule anchored at one decorated definition."""

    id = "test-decorated-def"

    def check(self, project):
        for module in project.modules.values():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.FunctionDef) and node.name == "build_mystery":
                    yield self.violation(module, node, "'mystery' is flagged")


def write_decorated_project(tmp_path, pragma_line):
    (tmp_path / "plugins.py").write_text(
        "def register(key):\n"
        "    return lambda fn: fn\n"
        "\n"
        '@register("alpha")\n'
        "def build_alpha():\n"
        "    return None\n"
        "\n"
        f'@register("mystery"){pragma_line}\n'
        "def build_mystery():\n"
        "    return None\n"
    )


def project_lint(tmp_path, monkeypatch):
    monkeypatch.setitem(
        engine._PROJECT_REGISTRY, DecoratedDefRule.id, DecoratedDefRule
    )
    stream = io.StringIO()
    code = run_lint([tmp_path], stream=stream, project=True, project_root=tmp_path)
    return code, stream.getvalue()


def test_decorated_def_finding_fires_without_pragma(tmp_path, monkeypatch):
    write_decorated_project(tmp_path, "")
    code, output = project_lint(tmp_path, monkeypatch)
    assert code == 1
    assert "test-decorated-def" in output
    assert "'mystery'" in output


def test_pragma_on_decorator_line_suppresses_def_anchored_finding(
    tmp_path, monkeypatch
):
    write_decorated_project(
        tmp_path,
        "  # simlint: allow[test-decorated-def] reason=internal key",
    )
    code, output = project_lint(tmp_path, monkeypatch)
    assert code == 0, output


# -- editing only the pragma --------------------------------------------------


def test_pragma_edit_takes_effect_on_the_next_run(tmp_path):
    module = tmp_path / "mod.py"

    def lint():
        stream = io.StringIO()
        return run_lint([module], stream=stream), stream.getvalue()

    module.write_text("import time\nT = time.time()\n")
    code, output = lint()
    assert code == 1 and "no-wall-clock" in output
    # Add only the pragma: the finding goes.
    module.write_text(
        "import time\n"
        "T = time.time()  # simlint: allow[no-wall-clock] reason=test\n"
    )
    assert lint() == (0, "simlint: 1 file(s), 0 finding(s)\n")
    # Fix the code but leave the pragma: now the pragma is the finding.
    module.write_text(
        "import time\n"
        "T = 0.0  # simlint: allow[no-wall-clock] reason=test\n"
    )
    code, output = lint()
    assert code == 1 and "pragma-unused" in output
