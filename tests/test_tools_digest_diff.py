"""Tests for the perfbench behaviour differ (tools/digest_diff.py)."""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import digest_diff  # noqa: E402


def report(seeds=("1", "2")):
    def workload(calls):
        return {
            "digests": {seed: f"digest-{seed}" for seed in seeds},
            "per_layer": {
                "model.requests": {"value": 800, "unit": "count"},
                "core.tcg.calls": {"value": calls, "unit": "count"},
                "sim.kernel.events": {"value": 4000, "unit": "count"},
                "core.tcg.self_s": {"value": 0.25, "unit": "s"},
            },
        }

    return {"workloads": {"lc-server": workload(0), "gc-steady": workload(7059)}}


def run(tmp_path, capsys, old, new):
    paths = []
    for name, content in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        paths.append(str(path))
    status = digest_diff.main(paths)
    return status, capsys.readouterr().out.splitlines()


def test_equal_reports_print_one_same_row_per_workload_and_seed(tmp_path, capsys):
    new = report()
    new["workloads"]["gc-steady"]["per_layer"]["core.tcg.self_s"]["value"] = 0.125
    status, lines = run(tmp_path, capsys, report(), new)
    assert status == 0  # timings are compare.py's business, not this tool's
    assert len(lines) == 5 and lines[-1] == "same behaviour"
    assert all(line.endswith("same") for line in lines[:-1])
    assert lines[0].split() == ["lc-server", "seed", "1", "same"]


def test_flipped_digest_and_moved_counter_are_named(tmp_path, capsys):
    new = copy.deepcopy(report())
    new["workloads"]["gc-steady"]["digests"]["2"] = "something else"
    new["workloads"]["gc-steady"]["per_layer"]["core.tcg.calls"]["value"] = 7060
    del new["workloads"]["lc-server"]["per_layer"]["model.requests"]
    status, lines = run(tmp_path, capsys, report(), new)
    assert status == 1 and lines[-1] == "DIFFERENT"
    assert [line.split() for line in lines if "DIFFERENT" in line][0] == [
        "gc-steady", "seed", "2", "DIFFERENT",
    ]
    assert sum(line.endswith("same") for line in lines) == 3
    assert "gc-steady    core.tcg.calls: 7059 -> 7060" in lines
    assert "lc-server    model.requests: 800 -> None" in lines


def test_mismatched_panels_are_refused(tmp_path, capsys):
    status, lines = run(tmp_path, capsys, report(), report(seeds=("1", "3")))
    assert status == 1
    assert "seeds differ: ['1', '2'] vs ['1', '3']" in lines[0]
    fewer = report()
    del fewer["workloads"]["lc-server"]
    status, lines = run(tmp_path, capsys, report(), fewer)
    assert status == 1 and lines[0].startswith("workloads differ")


def test_usage(capsys):
    assert digest_diff.main([]) == 2
    assert "OLD.json NEW.json" in capsys.readouterr().err
