"""``tools/hot_paths.py``: the sampler names the function that burns CPU."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT)]  # the tool, and perfbench

import hot_paths  # noqa: E402


def _spin():
    total = 0
    for step in range(3_000_000):
        total += step * step
    return total


def test_sampler_books_a_busy_loop_to_its_function():
    sampler = hot_paths.Sampler()
    sampler.run(_spin)
    own, inclusive = sampler.tables()
    assert sampler.samples > 0
    top, count = own.most_common(1)[0]
    assert top.endswith("test_hot_paths.py:_spin")
    assert count >= 0.8 * sampler.samples
    # Nothing above the anchor frame is booked: the loop is the whole run.
    assert inclusive[top] == sampler.samples


def test_frames_in_the_package_are_named_relative_to_it():
    kernel = str(hot_paths.PACKAGE / "sim" / "kernel.py")
    assert hot_paths._label(kernel, "Environment.run", []) == (
        "sim/kernel.py:Environment.run"
    )
    assert hot_paths._label("/lib/python3/enum.py", "Enum.__hash__", ["/lib/python3"]) == (
        "enum.py:Enum.__hash__"
    )


def test_an_unknown_workload_is_a_usage_error(capsys):
    assert hot_paths.main(["no-such-workload"]) == 2
    assert hot_paths.main([]) == 2
    assert "lc-server" in capsys.readouterr().err
