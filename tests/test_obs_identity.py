"""Bit-identity: observation is read-only.

Two pinned properties:

* trace **off** — the instrumented code paths collapse to dormant
  ``is None`` branches, so every run still matches the committed golden
  fixtures byte for byte (the fixtures are NOT re-recorded here);
* trace **on** — an attached observer changes no :class:`Results` field;
  with the sampler disabled even the kernel event count is untouched.
"""

import json
from pathlib import Path

import pytest

from repro.check import golden
from repro.core.metrics import results_to_dict
from repro.core.simulation import run_simulation
from repro.obs import Observer

FIXTURES = Path(__file__).parent / "golden"


def _fixture(name):
    return json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(golden.GOLDEN_CASES))
def test_untraced_runs_match_committed_goldens(name):
    fixture = _fixture(name)
    results = run_simulation(golden.GOLDEN_CASES[name])
    diffs = golden.diff_fixture(fixture["results"], results_to_dict(results))
    assert diffs == [], "\n".join(diffs)


@pytest.mark.parametrize("name", sorted(golden.GOLDEN_CASES))
def test_tracer_alone_is_invisible_even_to_the_profiler(name):
    """sample_period=None: no sampler process, no extra kernel events —
    the full fixture payload, profile event counts included, matches."""
    fixture = _fixture(name)
    observer = Observer(sample_period=None)
    results = run_simulation(golden.GOLDEN_CASES[name], observer=observer)
    diffs = golden.diff_fixture(fixture["results"], results_to_dict(results))
    assert diffs == [], "\n".join(diffs)
    assert observer.tracer.events, "the tracer recorded nothing"


@pytest.mark.parametrize("name", sorted(golden.GOLDEN_CASES))
def test_sampled_runs_change_no_results_field(name):
    """With the sampler on, its timer pops move the kernel event count
    (profile only); every Results field still matches the fixture."""
    fixture = _fixture(name)
    observer = Observer(sample_period=3.0)
    results = run_simulation(golden.GOLDEN_CASES[name], observer=observer)
    expected = dict(fixture["results"])
    actual = results_to_dict(results)
    expected.pop("profile", None)
    profile = actual.pop("profile", None)
    diffs = golden.diff_fixture(expected, actual)
    assert diffs == [], "\n".join(diffs)
    # The sampler's own events are the *only* profile drift: the
    # per-subsystem work counters still match exactly.
    assert profile["counters"] == fixture["results"]["profile"]["counters"]
    assert observer.sampler is not None
    assert len(observer.sampler.series("t")) > 0
