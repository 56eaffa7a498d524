"""The signature-piggyback power split on broadcast transmissions."""

import pytest

from repro.mobility import MobilityField, StationaryTrajectory
from repro.net import Message, MessageKind, P2PNetwork, PowerLedger, PowerModel
from repro.sim import Environment


def make_net(points, tran_range=50.0):
    env = Environment()
    field = MobilityField([StationaryTrajectory(p) for p in points])
    ledger = PowerLedger(len(points))
    net = P2PNetwork(env, field, 2_000_000.0, tran_range, ledger, PowerModel())
    return env, net, ledger


def run_broadcast(net, env, size, signature_bytes):
    message = Message(MessageKind.REQUEST, 0, None, size)
    net.broadcast(0, message, signature_bytes=signature_bytes)
    env.run()


def test_split_conserves_total_power():
    points = [(0.0, 0.0), (30.0, 0.0), (40.0, 0.0)]
    size, sig_bytes = 100, 36
    env, net, ledger = make_net(points)
    run_broadcast(net, env, size, sig_bytes)

    env2, net2, ledger2 = make_net(points)
    run_broadcast(net2, env2, size, 0)

    # Attribution moves between purposes but the total must be identical.
    assert ledger.total() == pytest.approx(ledger2.total())
    assert ledger2.total("signature") == 0.0
    assert ledger.total("signature") > 0.0


def test_split_matches_variable_coefficients():
    points = [(0.0, 0.0), (30.0, 0.0)]
    size, sig_bytes = 100, 20
    env, net, ledger = make_net(points)
    run_broadcast(net, env, size, sig_bytes)
    params = net.model.parameters
    # Sender pays v_bsend per piggybacked byte; the one receiver v_brecv.
    expected = params.bc_send_v * sig_bytes + params.bc_recv_v * sig_bytes
    assert ledger.total("signature") == pytest.approx(expected)


def test_zero_signature_bytes_charges_data_only():
    points = [(0.0, 0.0), (30.0, 0.0)]
    env, net, ledger = make_net(points)
    run_broadcast(net, env, 64, 0)
    assert ledger.total("signature") == 0.0
    assert ledger.total("data") > 0.0


def test_split_per_receiver_scales_with_audience():
    # Three receivers each pay the recv share of the piggyback.
    points = [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (-30.0, 0.0)]
    size, sig_bytes = 80, 10
    env, net, ledger = make_net(points)
    run_broadcast(net, env, size, sig_bytes)
    params = net.model.parameters
    expected = params.bc_send_v * sig_bytes + 3 * params.bc_recv_v * sig_bytes
    assert ledger.total("signature") == pytest.approx(expected)
