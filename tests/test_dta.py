"""Unit tests for dynamic timing analysis on hand-built circuits."""

import numpy as np
import pytest

from repro import obs
from repro.gates.builder import NetlistBuilder
from repro.timing.dta import (
    ERR_CE,
    ERR_NONE,
    ERR_SE_MAX,
    ERR_SE_MIN,
    CycleTimings,
    cycle_timings,
    pair_arrivals,
    single_transition_arrivals,
)
from repro.timing.levelize import levelize
from tests.util import chain_circuit as _chain_circuit  # canonical builder
from tests.util import random_gate_delays, random_netlist


def test_chain_arrival_time():
    circuit, delays = _chain_circuit(3)
    inputs = np.array([[0, 1]], dtype=bool)  # one toggle
    timings = cycle_timings(circuit, inputs, delays)
    assert timings.t_late[0] == pytest.approx(30.0)
    assert timings.t_early[0] == pytest.approx(30.0)
    assert timings.output_toggles[0] == 1


def test_no_toggle_means_no_transition():
    circuit, delays = _chain_circuit(3)
    inputs = np.array([[1, 1]], dtype=bool)
    timings = cycle_timings(circuit, inputs, delays)
    assert timings.t_late[0] == 0.0
    assert np.isinf(timings.t_early[0])
    assert timings.output_toggles[0] == 0


def test_diamond_takes_slowest_and_fastest_sensitised_branch():
    """a feeds both a slow and a fast branch into an XOR: when 'a'
    toggles, the XOR output transitions arrive through both branches --
    earliest via the fast one, latest via the slow one."""
    builder = NetlistBuilder()
    a = builder.input("a")
    b = builder.input("b")
    slow = builder.buf(builder.buf(a))  # 2 bufs
    fast = builder.buf(a)
    # OR them with b to keep both branches sensitisable
    left = builder.or_(slow, b)
    right = builder.or_(fast, b)
    out = builder.xor_(left, right)
    builder.output("y", out)
    netlist = builder.build()
    delays = np.zeros(netlist.num_nodes)
    for node in range(netlist.num_nodes):
        if netlist.fanins(node):
            delays[node] = 10.0

    circuit = levelize(netlist)
    # b stays 0; a toggles 0->1: left goes through 2 bufs + or (30 ps),
    # right through 1 buf + or (20 ps)
    inputs = np.array([[0, 1], [0, 0]], dtype=bool)
    late, early, toggled = single_transition_arrivals(
        circuit, inputs[:, 0], inputs[:, 1], delays
    )
    assert not toggled[out]  # XOR of two equal transitions ends equal
    # but left/right each transitioned:
    assert late[left] == pytest.approx(30.0)
    assert late[right] == pytest.approx(20.0)
    assert early[left] == pytest.approx(30.0)
    assert early[right] == pytest.approx(20.0)


def test_untoggled_nodes_carry_infinities():
    circuit, delays = _chain_circuit(2)
    late, early, toggled = single_transition_arrivals(
        circuit, np.array([1]), np.array([1]), delays
    )
    assert not toggled.any()
    assert np.isneginf(late[circuit.output_ids[0]])
    assert np.isposinf(early[circuit.output_ids[0]])


def test_chunked_equals_unchunked(alu8, alu8_circuit):
    rng = np.random.default_rng(21)
    ops = rng.integers(0, 13, size=64)
    a = rng.integers(0, 256, size=64, dtype=np.uint64)
    b = rng.integers(0, 256, size=64, dtype=np.uint64)
    inputs = alu8.encode_batch(ops, a, b)
    delays = np.where(
        [bool(alu8.netlist.fanins(n)) for n in range(alu8.netlist.num_nodes)],
        7.0,
        0.0,
    )
    big = cycle_timings(alu8_circuit, inputs, delays, chunk=1024)
    small = cycle_timings(alu8_circuit, inputs, delays, chunk=5)
    assert np.allclose(big.t_late, small.t_late)
    assert np.allclose(big.t_early, small.t_early, equal_nan=True)
    assert (big.output_toggles == small.output_toggles).all()


def test_single_transition_matches_batch(alu8, alu8_circuit):
    rng = np.random.default_rng(22)
    ops = rng.integers(0, 13, size=6)
    a = rng.integers(0, 256, size=6, dtype=np.uint64)
    b = rng.integers(0, 256, size=6, dtype=np.uint64)
    inputs = alu8.encode_batch(ops, a, b)
    delays = np.full(alu8.netlist.num_nodes, 5.0)
    for node in alu8.netlist.input_ids:
        delays[node] = 0.0
    batch = cycle_timings(alu8_circuit, inputs, delays)
    for t in range(5):
        late, early, _ = single_transition_arrivals(
            alu8_circuit, inputs[:, t], inputs[:, t + 1], delays
        )
        out = alu8_circuit.output_ids
        finite = np.isfinite(late[out])
        expected_late = late[out][finite].max() if finite.any() else 0.0
        assert batch.t_late[t] == pytest.approx(expected_late)


def test_pair_arrivals_columns_equal_single_pairs():
    """Non-adjacent pairs, a no-transition pair and a repeated pair: each
    column of one pair-form call equals its own single-pair call."""
    netlist = random_netlist(4, num_inputs=5, num_gates=40, num_outputs=3)
    circuit = levelize(netlist)
    delays = random_gate_delays(netlist, 4)
    pool = np.random.default_rng(4).integers(0, 2, size=(5, 4)).astype(bool)
    prev = pool[:, [0, 2, 1, 0, 3]]
    curr = pool[:, [3, 1, 1, 3, 0]]
    late, early, toggled = pair_arrivals(circuit, prev, curr, delays)
    assert late.shape == early.shape == toggled.shape == (netlist.num_nodes, 5)
    assert not toggled[:, 2].any()  # prev == curr: nothing transitions
    for k in range(5):
        single = single_transition_arrivals(circuit, prev[:, k], curr[:, k], delays)
        np.testing.assert_array_equal(late[:, k], single[0])
        np.testing.assert_array_equal(early[:, k], single[1])
        np.testing.assert_array_equal(toggled[:, k], single[2])


def test_pair_arrivals_toggling_inputs_arrive_at_positive_zero():
    """The early half propagates negated, and converting it back must
    keep a toggling primary input's earliest arrival at +0.0, not -0.0;
    quiet inputs arrive at +inf."""
    netlist = random_netlist(5, num_inputs=6, num_gates=30, num_outputs=3)
    circuit = levelize(netlist)
    rng = np.random.default_rng(5)
    prev = rng.integers(0, 2, size=(6, 8)).astype(bool)
    curr = rng.integers(0, 2, size=(6, 8)).astype(bool)
    late, early, toggled = pair_arrivals(circuit, prev, curr, random_gate_delays(netlist, 5))
    inputs = circuit.input_ids
    moving = toggled[inputs]
    assert moving.any() and not moving.all()
    assert (early[inputs][moving] == 0.0).all()
    assert not np.signbit(early[inputs][moving]).any()
    assert (late[inputs][moving] == 0.0).all()
    assert np.isposinf(early[inputs][~moving]).all()
    assert np.isneginf(late[inputs][~moving]).all()


def test_pair_arrivals_counts_one_transition_per_pair():
    circuit, delays = _chain_circuit(2)
    recorder = obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True))).recorder
    try:
        pair_arrivals(circuit, np.zeros((1, 5), bool), np.ones((1, 5), bool), delays)
        single_transition_arrivals(circuit, np.array([0]), np.array([1]), delays)
        counters = recorder.metrics.snapshot()["counters"]
    finally:
        obs.uninstall()
    assert counters["dta.single_transitions"] == 6


def test_pair_arrivals_rejects_mismatched_pairs():
    circuit, delays = _chain_circuit(2)
    with pytest.raises(ValueError):
        pair_arrivals(circuit, np.zeros((1, 3), bool), np.ones((1, 2), bool), delays)
    with pytest.raises(ValueError):
        pair_arrivals(circuit, np.zeros(1, bool), np.ones(1, bool), delays)


def test_requires_two_vectors(alu8_circuit, alu8):
    inputs = alu8.encode(0, 1, 2).reshape(-1, 1)
    with pytest.raises(ValueError):
        cycle_timings(alu8_circuit, inputs, np.zeros(alu8.netlist.num_nodes))


def test_invalid_chunk_rejected(alu8, alu8_circuit):
    inputs = alu8.encode_batch(
        np.array([0, 1]), np.array([1, 2], dtype=np.uint64), np.array([3, 4], dtype=np.uint64)
    )
    with pytest.raises(ValueError):
        cycle_timings(alu8_circuit, inputs, np.zeros(alu8.netlist.num_nodes), chunk=0)


# ---------------------------------------------------------------------------
# CycleTimings classification
# ---------------------------------------------------------------------------


def _timings(t_late, t_early):
    n = len(t_late)
    return CycleTimings(
        t_late=np.array(t_late, dtype=np.float32),
        t_early=np.array(t_early, dtype=np.float32),
        output_toggles=np.ones(n, dtype=np.int32),
    )


def test_classify_all_classes():
    timings = _timings(
        t_late=[50.0, 50.0, 120.0, 120.0],
        t_early=[40.0, 5.0, 40.0, 5.0],
    )
    classes = timings.classify(clock_period=100.0, hold_constraint=10.0)
    assert list(classes) == [ERR_NONE, ERR_SE_MIN, ERR_SE_MAX, ERR_CE]


def test_violation_masks():
    timings = _timings([120.0, 80.0], [50.0, 2.0])
    assert list(timings.max_violations(100.0)) == [True, False]
    assert list(timings.min_violations(10.0)) == [False, True]
    assert len(timings) == 2


def test_boundary_is_not_a_violation():
    timings = _timings([100.0], [10.0])
    assert not timings.max_violations(100.0)[0]
    assert not timings.min_violations(10.0)[0]
