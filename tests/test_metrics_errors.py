"""Error-path contracts: SweepTable lookups.

These messages are user-facing API (docs and notebooks point at them), so
they are asserted verbatim.
"""

import pytest

from repro.core.metrics import Results
from repro.experiments.runner import SweepTable


def _table():
    results = Results(
        scheme="GC",
        requests=10,
        local_hits=5,
        global_hits=3,
        global_hits_tcg=1,
        server_requests=2,
        failures=0,
        access_latency=0.01,
        latency_stddev=0.0,
        power_data=1.0,
        power_signature=0.0,
        power_beacon=0.0,
        power_per_gch=1.0,
        validations=0,
        validation_refreshes=0,
        bypassed_searches=0,
        peer_searches=0,
        measured_time=10.0,
        sim_time=100.0,
    )
    return SweepTable(
        figure="fig2",
        parameter="cache_size",
        values=[100, 200],
        rows={"GC": [results, results]},
    )


def test_sweep_table_unknown_scheme_message():
    with pytest.raises(KeyError) as excinfo:
        _table().series("CC", "gch_ratio")
    assert excinfo.value.args[0] == (
        "scheme 'CC' was not swept in fig2; available schemes: ['GC']"
    )


def test_sweep_table_unknown_scheme_in_result_lookup():
    with pytest.raises(KeyError) as excinfo:
        _table().result("LC", 100)
    assert excinfo.value.args[0] == (
        "scheme 'LC' was not swept in fig2; available schemes: ['GC']"
    )


def test_sweep_table_unswept_value_message():
    with pytest.raises(ValueError) as excinfo:
        _table().result("GC", 150)
    assert str(excinfo.value) == (
        "cache_size=150 was not swept in fig2; swept values: [100, 200]"
    )
