"""Tests for SimulationConfig and Metrics/Results."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CachingScheme, SimulationConfig
from repro.core.metrics import Metrics, RequestOutcome
from repro.net.power import PowerLedger


def test_scheme_flags():
    assert not CachingScheme.LC.cooperative
    assert CachingScheme.CC.cooperative
    assert CachingScheme.GC.cooperative
    assert CachingScheme.GC.group_based
    assert not CachingScheme.CC.group_based


def test_config_defaults_are_valid():
    config = SimulationConfig()
    assert config.n_clients == 100
    assert config.n_data == 10_000
    assert config.cache_size == 100
    assert config.scheme is CachingScheme.GC


@pytest.mark.parametrize(
    "overrides",
    [
        {"n_clients": 0},
        {"cache_size": 0},
        {"access_range": 0},
        {"access_range": 20_000},
        {"hop_dist": 0},
        {"p_disc": 1.5},
        {"disc_min": 10.0, "disc_max": 5.0},
        {"p_disc": 0.9, "disc_min": -3.0, "disc_max": -1.0},
        {"disc_min": float("nan")},
        {"disc_max": float("nan")},
        {"omega": -0.1},
        {"alpha": 1.5},
        {"explicit_update_portion": 2.0},
        {"group_size": 0},
        {"replace_candidate": 0},
        {"replace_delay": 0},
        {"measure_requests": 0},
        {"think_time_mean": 0.0},
        {"beacon_interval": 0.0},
        {"congestion_phi": 0.0},
        {"deviation_phi": -1.0},
        {"tran_range": 0.0},
        {"bw_downlink": 0.0},
        {"bw_uplink": -1.0},
        {"bw_p2p": 0.0},
        {"faults": None},
        {"search_retry_limit": -1},
        {"retrieve_retry_limit": -1},
        {"uplink_retry_limit": -1},
        {"retry_backoff_base": 0.0},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        SimulationConfig(**overrides)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize(
    "name", [spec.name for spec in dataclasses.fields(SimulationConfig)]
)
def test_no_field_accepts_a_non_finite_value(name):
    # NaN fails no ``<`` bound and inf passes every lower one, so the
    # per-field contracts cannot be trusted to catch either.
    for value in NON_FINITE:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimulationConfig(**{name: value})


def test_from_dict_rejects_nan_from_json():
    # json round-trips NaN happily; the boundary must not.
    text = json.dumps({**SimulationConfig().as_dict(), "theta": math.nan})
    with pytest.raises(ValueError, match="theta must be finite, got nan"):
        SimulationConfig.from_dict(json.loads(text))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
TEXT = st.text(max_size=3)
#: Values of some other type, per field annotation.  A bool is never a
#: count, a float never a count even when integral, an int never a flag.
WRONG_TYPE = {
    "int": st.one_of(st.none(), st.booleans(), FINITE, TEXT, st.lists(st.integers(), max_size=2)),
    "float": st.one_of(st.none(), st.booleans(), TEXT, st.lists(FINITE, max_size=2)),
    "bool": st.one_of(st.none(), st.integers(), FINITE, TEXT),
    "str": st.one_of(st.none(), st.booleans(), st.integers(), st.binary(max_size=3)),
    "CachingScheme": st.one_of(st.none(), st.sampled_from(["LC", "CC", "GC"])),
    "FaultPlan": st.one_of(st.none(), st.dictionaries(TEXT, st.integers(), max_size=2)),
}


@pytest.mark.parametrize(
    "spec", dataclasses.fields(SimulationConfig), ids=lambda spec: spec.name
)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_field_rejects_a_wrong_type_by_name(spec, data):
    value = data.draw(WRONG_TYPE[spec.type])
    # The scheme and the fault plan have always had their own named
    # ValueError; every plain field raises TypeError.
    error = TypeError if spec.type in ("int", "float", "bool", "str") else ValueError
    with pytest.raises(error, match=f"^{spec.name} must be") as excinfo:
        SimulationConfig(**{spec.name: value})
    if error is TypeError:
        assert repr(value) in str(excinfo.value)


def test_float_fields_take_ints_and_int_fields_take_numpy_ints():
    config = SimulationConfig(theta=1, tran_range=150, n_clients=np.int64(40))
    assert (config.theta, config.tran_range, config.n_clients) == (1, 150, 40)


@pytest.mark.parametrize(
    "name",
    [
        # the six fields this round retired ...
        "discovery_policy",
        "admission_control",
        "cooperative_replacement",
        "policy_epsilon",
        "health_alpha",
        "trace_requests",
        # ... and a typo of a live one
        "cache_sise",
    ],
)
def test_from_dict_rejects_an_unknown_field_by_name(name):
    # cached JSON, old trace manifests and hand-written configs alike: the
    # stray key is named before the dataclass constructor can choke on it.
    payload = {**SimulationConfig().as_dict(), name: False}
    with pytest.raises(ValueError) as err:
        SimulationConfig.from_dict(payload)
    message = str(err.value)
    assert message.startswith(f"unknown SimulationConfig field(s): {name!r}; known: ")
    assert "cache_size, " in message  # the live names are listed


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda faults: faults.pop("crash"), "faults.crash is missing"),
        (
            lambda faults: faults.update(p2p="x"),
            "faults.p2p must be a mapping, got str 'x'",
        ),
        (
            lambda faults: faults["p2p"].update(lose=0.1),
            "unknown faults.p2p field(s): 'lose'; known: burst_loss, "
            "burst_off, burst_on, loss",
        ),
        (
            lambda faults: faults["p2p"].update(loss="0.1"),
            "faults.p2p.loss must be a number, got str '0.1'",
        ),
    ],
    ids=["missing-part", "part-not-a-mapping", "unknown-key", "wrong-type"],
)
def test_from_dict_names_the_path_of_a_malformed_fault_plan(mutate, message):
    payload = json.loads(json.dumps(SimulationConfig().as_dict()))
    mutate(payload["faults"])
    with pytest.raises(ValueError) as err:
        SimulationConfig.from_dict(payload)
    assert str(err.value) == message


def test_static_config_sites_name_real_fields():
    # The field names the harness spells out as strings: each CLI flag's
    # target field, every scale profile and the golden-case base.
    from repro.check.golden import _BASE
    from repro.cli import _CONFIG_FIELDS
    from repro.experiments.runner import BENCH_PROFILE, FULL_PROFILE, QUICK_PROFILE

    fields = {spec.name for spec in dataclasses.fields(SimulationConfig)}
    assert set(_CONFIG_FIELDS.values()) <= fields
    for site in (QUICK_PROFILE, BENCH_PROFILE, FULL_PROFILE, _BASE):
        assert SimulationConfig(**site).as_dict().items() >= site.items()


def test_with_scheme_and_replace():
    config = SimulationConfig()
    lc = config.with_scheme(CachingScheme.LC)
    assert lc.scheme is CachingScheme.LC
    assert lc.n_clients == config.n_clients
    small = config.replace(n_clients=10, cache_size=5)
    assert small.n_clients == 10
    assert config.n_clients == 100  # original untouched


def test_metrics_ignores_before_recording():
    metrics = Metrics("GC")
    metrics.record_request(0, RequestOutcome.LOCAL_HIT, 0.1)
    metrics.record_validation(True)
    metrics.record_search(False)
    assert metrics.requests == 0
    assert metrics.validations == 0
    assert metrics.peer_searches == 0


def test_metrics_counts_and_ratios():
    metrics = Metrics("CC")
    ledger = PowerLedger(2)
    metrics.start_recording(10.0, ledger, n_clients=2)
    metrics.record_request(0, RequestOutcome.LOCAL_HIT, 0.0)
    metrics.record_request(0, RequestOutcome.GLOBAL_HIT, 0.01, from_tcg=True)
    metrics.record_request(1, RequestOutcome.SERVER, 0.05)
    metrics.record_request(1, RequestOutcome.SERVER, 0.03)
    ledger.charge(0, 100.0, "data")
    ledger.charge(0, 20.0, "signature")
    ledger.charge(1, 50.0, "beacon")
    results = metrics.results(20.0, ledger)
    assert results.requests == 4
    assert results.lch_ratio == pytest.approx(25.0)
    assert results.gch_ratio == pytest.approx(25.0)
    assert results.server_request_ratio == pytest.approx(50.0)
    assert results.global_hits_tcg == 1
    assert results.access_latency == pytest.approx((0 + 0.01 + 0.05 + 0.03) / 4)
    assert results.power_per_gch == pytest.approx(120.0)  # data + signature
    assert results.measured_time == pytest.approx(10.0)


def test_metrics_power_baseline_subtracted():
    metrics = Metrics("CC")
    ledger = PowerLedger(1)
    ledger.charge(0, 500.0, "data")  # warm-up consumption
    metrics.start_recording(0.0, ledger, n_clients=1)
    metrics.record_request(0, RequestOutcome.GLOBAL_HIT, 0.01)
    ledger.charge(0, 80.0, "data")
    results = metrics.results(1.0, ledger)
    assert results.power_data == pytest.approx(80.0)
    assert results.power_per_gch == pytest.approx(80.0)


def test_metrics_beacon_power_optional():
    metrics = Metrics("CC")
    ledger = PowerLedger(1)
    metrics.start_recording(0.0, ledger, n_clients=1)
    metrics.record_request(0, RequestOutcome.GLOBAL_HIT, 0.01)
    ledger.charge(0, 10.0, "data")
    ledger.charge(0, 7.0, "beacon")
    assert metrics.results(1.0, ledger).power_per_gch == pytest.approx(10.0)
    assert metrics.results(
        1.0, ledger, count_beacon_power=True
    ).power_per_gch == pytest.approx(17.0)


def test_metrics_power_per_gch_inf_without_hits():
    metrics = Metrics("LC")
    ledger = PowerLedger(1)
    metrics.start_recording(0.0, ledger, n_clients=1)
    metrics.record_request(0, RequestOutcome.SERVER, 0.1)
    assert math.isinf(metrics.results(1.0, ledger).power_per_gch)


def test_metrics_min_client_requests():
    metrics = Metrics("GC")
    ledger = PowerLedger(3)
    assert metrics.min_client_requests() == 0
    metrics.start_recording(0.0, ledger, n_clients=3)
    metrics.record_request(0, RequestOutcome.LOCAL_HIT, 0.0)
    metrics.record_request(0, RequestOutcome.LOCAL_HIT, 0.0)
    metrics.record_request(2, RequestOutcome.LOCAL_HIT, 0.0)
    assert metrics.min_client_requests() == 0  # client 1 has none
    metrics.record_request(1, RequestOutcome.LOCAL_HIT, 0.0)
    assert metrics.min_client_requests() == 1


def test_results_as_dict_keys():
    metrics = Metrics("GC")
    ledger = PowerLedger(1)
    metrics.start_recording(0.0, ledger, n_clients=1)
    data = metrics.results(1.0, ledger).as_dict()
    assert {"scheme", "access_latency", "server_request_ratio", "gch_ratio"} <= set(
        data
    )
