"""Tests for the Table I power model and the per-host ledger."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net import PowerLedger, PowerModel, PowerParameters
from repro.net.power import PURPOSES
from tests._p2p_reference import MaskChargedLedger


def test_table1_point_to_point_rows():
    model = PowerModel()
    b = 100
    assert model.ptp_send(b) == pytest.approx(1.9 * b + 454)
    assert model.ptp_recv(b) == pytest.approx(0.5 * b + 356)
    # Discard rows are size-independent (v = 0) with the paper's fixed costs.
    assert model.ptp_discard_sd(b) == pytest.approx(70.0)
    assert model.ptp_discard_s(b) == pytest.approx(24.0)
    assert model.ptp_discard_d(b) == pytest.approx(56.0)
    assert model.ptp_discard_sd(10 * b) == model.ptp_discard_sd(b)


def test_table1_broadcast_rows():
    model = PowerModel()
    b = 64
    assert model.bc_send(b) == pytest.approx(1.9 * b + 266)
    assert model.bc_recv(b) == pytest.approx(0.5 * b + 56)


def test_custom_parameters():
    model = PowerModel(PowerParameters(ptp_send_v=2.0, ptp_send_f=100.0))
    assert model.ptp_send(10) == pytest.approx(120.0)


@given(st.integers(min_value=1, max_value=10**6))
def test_send_always_costs_more_than_recv(size):
    model = PowerModel()
    assert model.ptp_send(size) > model.ptp_recv(size)
    assert model.bc_send(size) > model.bc_recv(size)


def test_ledger_charge_and_totals():
    ledger = PowerLedger(3)
    ledger.charge(0, 10.0, "data")
    ledger.charge(0, 5.0, "signature")
    ledger.charge(2, 7.0, "beacon")
    assert ledger.host_total(0) == pytest.approx(15.0)
    assert ledger.host_total(1) == 0.0
    assert ledger.total() == pytest.approx(22.0)
    assert ledger.total("data") == pytest.approx(10.0)
    assert ledger.by_purpose() == pytest.approx(
        {"data": 10.0, "signature": 5.0, "beacon": 7.0}
    )


def test_ledger_charge_hosts():
    ledger = PowerLedger(4)
    ledger.charge_hosts([1, 3], 2.5)
    assert ledger.host_total(1) == pytest.approx(2.5)
    assert ledger.host_total(3) == pytest.approx(2.5)
    ledger.charge_hosts([], 1.0)  # nobody named: no-op
    assert ledger.total() == pytest.approx(5.0)
    assert ledger.per_host_totals().tolist() == [0.0, 2.5, 0.0, 2.5]
    ledger.charge_hosts([0, 0], 1.0, "beacon")  # a host named twice pays twice
    assert ledger.per_host("beacon") == [2.0, 0.0, 0.0, 0.0]


def snapshot(ledger):
    return {purpose: ledger.per_host(purpose) for purpose in PURPOSES}


def test_ledger_rejects_negative_charges():
    ledger = PowerLedger(2)
    ledger.charge(1, 0.3, "signature")
    before = snapshot(ledger)
    with pytest.raises(ValueError):
        ledger.charge(0, -1.0)
    with pytest.raises(ValueError):
        ledger.charge_hosts([0], -1.0)
    assert snapshot(ledger) == before


def test_ledger_rejects_nan_charges():
    """`amount < 0` is False for NaN; one NaN would poison the whole purpose."""
    ledger = PowerLedger(4)
    ledger.charge(2, 0.7)
    before = snapshot(ledger)
    with pytest.raises(ValueError, match="nan"):
        ledger.charge(0, math.nan)
    with pytest.raises(ValueError, match="nan"):
        ledger.charge_hosts([1, 2], math.nan)
    amounts = np.array([1.0, math.nan, 0.0, 2.0])
    with pytest.raises(ValueError):
        ledger.charge_each(amounts)
    assert snapshot(ledger) == before


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.lists(st.integers(0, n - 1), max_size=8),
                    st.floats(0.0, 1e6),
                ),
                min_size=1,
                max_size=6,
            ),
        )
    )
)
def test_ledger_charge_hosts_equals_a_per_host_charge_loop(case):
    """Bit for bit, repeated hosts and charges included: the same float
    additions, in the same order per host."""
    n_hosts, charges = case
    grouped, looped = PowerLedger(n_hosts), PowerLedger(n_hosts)
    for hosts, amount in charges:
        grouped.charge_hosts(hosts, amount, "signature")
        for host in hosts:
            looped.charge(host, amount, "signature")
    assert snapshot(grouped) == snapshot(looped)


def test_ledger_charge_each():
    ledger = PowerLedger(3)
    ledger.charge(1, 0.1, "beacon")
    ledger.charge_each(np.array([1.5, 0.0, 2.0]), "beacon")
    ledger.charge_each([0, 3, 0], "beacon")  # any array-like of length N
    assert ledger.per_host_totals().tolist() == [1.5, 0.1 + 0.0 + 3.0, 2.0]
    assert ledger.total("data") == 0.0


def test_ledger_charge_each_validates_shape_and_sign():
    ledger = PowerLedger(3)
    with pytest.raises(ValueError, match="3 amounts"):
        ledger.charge_each(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="3 amounts"):
        ledger.charge_each(np.ones((3, 1)))
    with pytest.raises(ValueError):
        ledger.charge_each(np.array([1.0, -0.5, 0.0]))
    assert ledger.total() == 0.0


def test_ledger_rejects_empty():
    with pytest.raises(ValueError):
        PowerLedger(0)


def test_ledger_unknown_purpose_raises():
    ledger = PowerLedger(1)
    with pytest.raises(KeyError):
        ledger.charge(0, 1.0, "nonsense")


# -- the sums are numpy's, as when the ledger was an ndarray -----------------


def _ledger_pair(charges):
    """A list ledger and the ndarray one it replaced, charged alike."""
    ledgers = PowerLedger(len(charges[0])), MaskChargedLedger(len(charges[0]))
    for ledger in ledgers:
        for purpose, amounts in zip(PURPOSES, charges):
            for host, amount in enumerate(amounts):
                ledger.charge(host, amount, purpose)
    return ledgers


def _assert_same_sums(new, old):
    assert new.by_purpose() == old.by_purpose()
    assert new.total() == old.total()
    for purpose in PURPOSES:
        assert new.total(purpose) == old.total(purpose)
    assert new.per_host_totals().tobytes() == old.per_host_totals().tobytes()
    for host in range(new.n_hosts):
        assert new.host_total(host) == old.host_total(host)


def test_ledger_sums_are_numpy_pairwise_not_python_sum():
    """One large charge and many small ones: a left-to-right ``sum()`` drops
    every small one against the large, numpy's pairwise sum keeps them.
    ``power_per_gch`` divides ``by_purpose()``, so the ledger must keep
    summing the way the ndarray did."""
    data = [1e16, *[1.0] * 19, *[0.1 * i for i in range(20)]]
    charges = [data, data[::-1], [3.3] * len(data)]
    assert sum(data) != float(np.asarray(data).sum())  # the case is a real one
    new, old = _ledger_pair(charges)
    assert new.by_purpose()["data"] == float(np.asarray(data).sum()) != sum(data)
    _assert_same_sums(new, old)


@given(
    st.integers(1, 200).flatmap(
        lambda n: st.lists(
            st.lists(
                st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e18)),
                min_size=n,
                max_size=n,
            ),
            min_size=3,
            max_size=3,
        )
    )
)
# Up to 600 charges per example: generating them can trip Hypothesis'
# too_slow health check on a loaded host.  The input space, the property
# and the example budget stay as they are.
@settings(suppress_health_check=[HealthCheck.too_slow])
def test_ledger_sums_equal_the_ndarray_ledger(charges):
    _assert_same_sums(*_ledger_pair(charges))
