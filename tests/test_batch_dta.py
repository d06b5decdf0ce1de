"""Batched DTA kernel: batch/per-pair parity and the shared-memory hand-off.

The batch kernel's contract is *bit-identity*: ``batch_cycle_timings``
row ``i`` must equal the stream timed as its adjacent pairs
(``pair_cycle_timings``) on chip ``i`` exactly, for every chunking,
population size, degenerate shape and pattern of repeated transitions
(the kernel times each distinct transition once).  The
shared-memory tests pin the lifecycle rules: a crashing worker must
never take the parent's segments down with it, and readers must degrade
to ``None`` instead of raising when a segment is gone.
"""

import hashlib
import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro import obs
from repro.arch.trace import BENCHMARKS, generate_trace
from repro.experiments.config import FAST_CONFIG
from repro.pv.chip import delay_matrix
from repro.pv.delaymodel import NTC
from repro.pv.montecarlo import fabricate_population
from repro.qa.oracles import pair_cycle_timings
from repro.runtime.shm import ArraySpec, ShmCatalog, ShmPublisher, ShmReader
from repro.timing import dta
from repro.timing.dta import batch_cycle_timings, cycle_timings
from repro.timing.levelize import levelize
from tests.util import chain_circuit as _chain_circuit
from tests.util import random_gate_delays, random_netlist


def _random_inputs(netlist, num_vectors, seed):
    rng = np.random.default_rng(seed)
    num_inputs = len(netlist.input_ids)
    return rng.integers(0, 2, size=(num_inputs, num_vectors)).astype(bool)


def _assert_chip_equal(batch, index, reference):
    view = batch.chip(index)
    np.testing.assert_array_equal(view.t_late, reference.t_late)
    np.testing.assert_array_equal(view.t_early, reference.t_early)
    np.testing.assert_array_equal(view.output_toggles, reference.output_toggles)


# ----------------------------------------------------------------------
# batch vs per-pair parity
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_matches_scalar_on_random_population(seed):
    netlist = random_netlist(seed, num_inputs=5, num_gates=30, num_outputs=3)
    circuit = levelize(netlist)
    inputs = _random_inputs(netlist, 40, seed + 100)
    delay_rng = np.random.default_rng(seed + 200)
    rows = [random_gate_delays(netlist, delay_rng) for _ in range(4)]

    batch = batch_cycle_timings(circuit, inputs, np.stack(rows), chunk=16)
    assert batch.t_late.shape == (4, 39)
    assert batch.t_early.shape == (4, 39)
    for i, delays in enumerate(rows):
        _assert_chip_equal(batch, i, pair_cycle_timings(circuit, inputs, delays))


def test_batch_matches_scalar_on_fabricated_population(alu8, alu8_circuit):
    pop = fabricate_population(alu8.netlist, NTC, seeds=(11, 12, 13))
    inputs = _random_inputs(alu8.netlist, 25, 7)
    batch = batch_cycle_timings(alu8_circuit, inputs, pop.delay_matrix, chunk=64)
    for i in range(pop.num_chips):
        reference = pair_cycle_timings(alu8_circuit, inputs, pop.chip(i).delays)
        _assert_chip_equal(batch, i, reference)


def test_single_chip_view_is_batch_kernel():
    """cycle_timings is a population-of-one view and agrees with the pairs."""
    netlist = random_netlist(5)
    circuit = levelize(netlist)
    inputs = _random_inputs(netlist, 20, 5)
    delays = random_gate_delays(netlist, 5)

    thin = cycle_timings(circuit, inputs, delays, chunk=8)
    reference = pair_cycle_timings(circuit, inputs, delays)
    np.testing.assert_array_equal(thin.t_late, reference.t_late)
    np.testing.assert_array_equal(thin.t_early, reference.t_early)
    np.testing.assert_array_equal(thin.output_toggles, reference.output_toggles)


# ----------------------------------------------------------------------
# degenerate shapes and no-toggle cycles
# ----------------------------------------------------------------------


def test_no_toggle_cycles_across_population():
    circuit, delays = _chain_circuit(3)
    # identical vectors -> no transition anywhere, for every chip
    inputs = np.ones((1, 5), dtype=bool)
    matrix = np.stack([delays, delays * 2.0, delays * 0.5])
    batch = batch_cycle_timings(circuit, inputs, matrix)
    assert np.all(batch.t_late == 0.0)
    assert np.all(np.isposinf(batch.t_early))
    assert np.all(batch.output_toggles == 0)


def test_single_chip_single_cycle_degenerate_shapes():
    circuit, delays = _chain_circuit(3)
    inputs = np.array([[0, 1]], dtype=bool)  # one transition
    batch = batch_cycle_timings(circuit, inputs, delays[None, :])
    assert batch.num_chips == 1
    assert batch.t_late.shape == (1, 1)
    assert batch.chip(0).t_late[0] == pytest.approx(30.0)
    assert batch.chip(0).t_early[0] == pytest.approx(30.0)
    assert batch.output_toggles[0] == 1


def test_batch_rejects_bad_shapes():
    circuit, delays = _chain_circuit(2)
    inputs = np.array([[0, 1]], dtype=bool)
    with pytest.raises(ValueError):
        batch_cycle_timings(circuit, inputs, delays)  # 1-D matrix
    with pytest.raises(ValueError):
        batch_cycle_timings(circuit, inputs, np.empty((0, len(delays))))
    with pytest.raises(ValueError):
        batch_cycle_timings(circuit, np.array([[0]], dtype=bool), delays[None, :])
    with pytest.raises(ValueError):
        batch_cycle_timings(circuit, inputs, delays[None, :], chunk=0)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1000])
def test_chunk_boundaries_never_change_results(chunk):
    """Every chunking, including window=1 seams, gives identical arrays."""
    netlist = random_netlist(9, num_inputs=4, num_gates=25, num_outputs=2)
    circuit = levelize(netlist)
    inputs = _random_inputs(netlist, 23, 9)
    matrix = np.stack(
        [random_gate_delays(netlist, 90 + i) for i in range(3)]
    )
    reference = batch_cycle_timings(circuit, inputs, matrix, chunk=10_000)
    chunked = batch_cycle_timings(circuit, inputs, matrix, chunk=chunk)
    np.testing.assert_array_equal(chunked.t_late, reference.t_late)
    np.testing.assert_array_equal(chunked.t_early, reference.t_early)
    np.testing.assert_array_equal(chunked.output_toggles, reference.output_toggles)


# ----------------------------------------------------------------------
# repeated transitions: each distinct transition timed once
# ----------------------------------------------------------------------


def _timed_transitions(circuit, inputs, matrix, chunk=16):
    """The batch result and its ``dta.transitions_timed`` count."""
    recorder = obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True))).recorder
    try:
        batch = batch_cycle_timings(circuit, inputs, matrix, chunk=chunk)
        counters = recorder.metrics.snapshot()["counters"]
    finally:
        obs.uninstall()
    return batch, counters["dta.transitions_timed"]


def test_stream_without_repeats_times_every_transition():
    netlist = random_netlist(3, num_inputs=6, num_gates=30, num_outputs=3)
    circuit = levelize(netlist)
    # 40 distinct vectors (a binary count): no transition can repeat
    inputs = ((np.arange(40)[None, :] >> np.arange(6)[:, None]) & 1).astype(bool)
    delays = random_gate_delays(netlist, 3)
    batch, timed = _timed_transitions(circuit, inputs, delays[None, :])
    assert timed == 39
    _assert_chip_equal(batch, 0, pair_cycle_timings(circuit, inputs, delays))


def test_constant_stream_times_one_transition():
    circuit, delays = _chain_circuit(3)
    inputs = np.ones((1, 50), dtype=bool)
    batch, timed = _timed_transitions(circuit, inputs, np.stack([delays, delays * 2]))
    assert timed == 1
    assert np.all(batch.t_late == 0.0)
    assert np.all(np.isposinf(batch.t_early))


@pytest.mark.parametrize("seed", range(6))
def test_pooled_streams_never_time_more_than_the_stream(seed):
    netlist = random_netlist(seed, num_inputs=4, num_gates=25, num_outputs=2)
    circuit = levelize(netlist)
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2, size=(4, 1 + seed % 4)).astype(bool)
    inputs = pool[:, rng.integers(0, pool.shape[1], size=30)]
    rows = [random_gate_delays(netlist, 50 + seed + i) for i in range(3)]
    batch, timed = _timed_transitions(circuit, inputs, np.stack(rows), chunk=1 + seed)
    assert 1 <= timed <= 29
    for i, delays in enumerate(rows):
        _assert_chip_equal(batch, i, pair_cycle_timings(circuit, inputs, delays))


@pytest.mark.parametrize("name", FAST_CONFIG.benchmarks)
def test_benchmark_traces_match_the_pairs(name, stage16_ntc, chip16):
    trace = generate_trace(BENCHMARKS[name], FAST_CONFIG.cycles, width=16)
    inputs = trace.encode_inputs(stage16_ntc.alu)
    batch, timed = _timed_transitions(
        stage16_ntc.circuit, inputs, chip16.delays[None, :], chunk=1024
    )
    assert timed <= FAST_CONFIG.cycles - 1
    reference = pair_cycle_timings(stage16_ntc.circuit, inputs, chip16.delays)
    _assert_chip_equal(batch, 0, reference)


def test_mixed_op_stream_runs_on_restricted_circuits(stage16_ntc, chip16):
    """A stream that changes op every few cycles: windows straddle
    classes, pairs change op, and each window runs on its restricted
    circuit -- still bit-identical to the unpruned pairs, for less work."""
    alu = stage16_ntc.alu
    rng = np.random.default_rng(11)
    ops = np.repeat(rng.choice([int(op) for op in alu.ops], size=60), rng.integers(1, 6, 60))
    inputs = alu.encode_batch(
        ops, rng.integers(0, 1 << 16, len(ops)), rng.integers(0, 1 << 16, len(ops))
    )
    matrix = np.stack([chip16.delays, chip16.delays * 1.5])
    recorder = obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True))).recorder
    try:
        batch = batch_cycle_timings(stage16_ntc.circuit, inputs, matrix, chunk=40)
        counters = recorder.metrics.snapshot()["counters"]
    finally:
        obs.uninstall()
    full_work = stage16_ntc.circuit.gate_count * counters["dta.transitions_timed"] * 2
    assert 0 < counters["dta.gate_evals"] < full_work / 2
    for index, delays in enumerate(matrix):
        _assert_chip_equal(
            batch, index, pair_cycle_timings(stage16_ntc.circuit, inputs, delays)
        )


def _assert_same_circuit(got, want):
    for name in (
        "num_nodes", "input_ids", "output_ids", "const0_ids", "const1_ids",
        "node_levels", "kinds", "fanins", "controls", "node_ids",
    ):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert len(got.levels) == len(want.levels)
    for got_step, want_step in zip(got.levels, want.levels):
        for got_field, want_field in zip(got_step, want_step):
            if isinstance(want_field, np.ndarray):
                np.testing.assert_array_equal(got_field, want_field)
            else:
                assert got_field == want_field


def test_batched_restrictions_equal_one_key_restrictions(stage16_ntc, chip16):
    """The windows of a multi-op stream derive their restrictions in one
    batch; each equals the one-key ``restrict`` of its key, the batch
    fills the same per-key cache, and the stream kernel finds every
    window's restriction there."""
    alu = stage16_ntc.alu
    netlist = stage16_ntc.circuit.netlist
    controls_at = stage16_ntc.circuit.controls
    rng = np.random.default_rng(5)
    ops = np.repeat(rng.choice([int(op) for op in alu.ops], size=40), rng.integers(1, 6, 40))
    inputs = alu.encode_batch(
        ops, rng.integers(0, 1 << 16, len(ops)), rng.integers(0, 1 << 16, len(ops))
    )
    controls = inputs[controls_at]
    first, _ = dta._first_occurrences(inputs)
    order, _ = dta._class_order(controls, first)
    starts = np.arange(0, len(first), 20)
    known0, known1 = dta._window_keys(controls, first[order], first[order] + 1, starts)
    distinct = {(k0.tobytes(), k1.tobytes()) for k0, k1 in zip(known0, known1)}
    assert len(starts) > 2 and len(distinct) > 2

    batched = levelize(netlist, controls=controls_at)
    circuits = batched.restrict_many(known0, known1)
    single = levelize(netlist, controls=controls_at)
    for k0, k1, circuit in zip(known0, known1, circuits):
        assert batched.restrict(k0, k1) is circuit  # one cache
        _assert_same_circuit(circuit, single.restrict(k0, k1))
    assert len(batched._restricted) == len(distinct)
    batch_cycle_timings(batched, inputs, chip16.delays[None, :], chunk=20)
    assert len(batched._restricted) == len(distinct)


# ----------------------------------------------------------------------
# shared-memory hand-off lifecycle
# ----------------------------------------------------------------------


def _attach_and_crash(catalog):
    """Child body: attach a view, then die without any cleanup."""
    reader = ShmReader(catalog)
    view = reader.get("delays")
    assert view is not None and view.shape == (2, 3)
    os.kill(os.getpid(), signal.SIGKILL)  # simulated worker crash


def _attach_and_verify(catalog):
    """Sibling-worker body: attach after the crash and check the data.

    Runs in its own process (like a real fleet worker) so the attach
    path exercises the untracked-attach rules rather than the parent's
    own bookkeeping; any assertion failure surfaces as a non-zero
    exitcode.
    """
    reader = ShmReader(catalog)
    view = reader.get("delays")
    assert view is not None
    np.testing.assert_array_equal(view, np.arange(6, dtype=np.float32).reshape(2, 3))
    assert not view.flags.writeable
    assert reader.meta["seeds"] == (1, 2)
    reader.close()


def test_worker_crash_leaves_parent_segments_alive():
    """A dying worker must not unlink the parent's segments (the
    resource-tracker trap); siblings keep attaching, and only the
    parent's unlink() destroys them."""
    publisher = ShmPublisher()
    try:
        publisher.put("delays", np.arange(6, dtype=np.float32).reshape(2, 3))
        publisher.put_meta("seeds", (1, 2))
        catalog = publisher.catalog()

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_attach_and_crash, args=(catalog,))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        # a sibling worker attaching after the crash still sees the array
        sibling = ctx.Process(target=_attach_and_verify, args=(catalog,))
        sibling.start()
        sibling.join(timeout=30)
        assert sibling.exitcode == 0
    finally:
        publisher.unlink()

    # after unlink the segment is really gone: attach degrades to None
    late = ShmReader(catalog)
    assert late.get("delays") is None
    late.close()


def test_reader_returns_none_for_missing_segments():
    catalog = ShmCatalog(
        arrays=(("ghost", ArraySpec(segment="repro-none-999999", shape=(2,), dtype="float32")),),
    )
    reader = ShmReader(catalog)
    assert "ghost" in reader
    assert reader.get("ghost") is None
    assert reader.get("ghost") is None  # cached failure, still quiet
    assert reader.get("unknown-key") is None
    reader.close()


def test_publisher_unlink_is_idempotent():
    publisher = ShmPublisher()
    publisher.put("a", np.zeros(4))
    catalog = publisher.catalog()
    assert len(catalog) == 1
    publisher.unlink()
    publisher.unlink()  # double unlink must not raise
    reader = ShmReader(catalog)
    assert reader.get("a") is None
    reader.close()


#: sha256 of the ``fig3_8 fig4_8 --fast`` JSON report -- 2,000-cycle
#: error traces through the stream kernel -- and its DTA/etrace counters
LONG_STREAM_REPORT_SHA256 = (
    "6d24efcce0f8b5e3e3fbf70b74ee48ece7529b95a7707557cdb84d279db784ca"
)
LONG_STREAM_COUNTERS = {
    "dta.chip_cycles": 23988,
    "dta.cycles_analyzed": 23988,
    "dta.evaluations": 12,
    "dta.gate_evals": 8270870,
    "dta.transitions_skipped": 10764,
    "dta.transitions_timed": 8812,
    "etrace.cycles": 23988,
    "etrace.errors{kind=ce}": 62,
    "etrace.errors{kind=se_max}": 2545,
    "etrace.errors{kind=se_min}": 248,
}


def test_long_stream_report_bytes_and_counters_are_pinned(tmp_path):
    from repro.experiments.__main__ import main

    report = tmp_path / "report.json"
    metrics = tmp_path / "metrics.json"
    code = main([
        "fig3_8", "fig4_8", "--fast", "--jobs", "1",
        "--out", str(report), "--format", "json", "--metrics-out", str(metrics),
    ])
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == LONG_STREAM_REPORT_SHA256
    counters = json.loads(metrics.read_text())["counters"]
    pinned = {
        k: v for k, v in counters.items()
        if k.startswith(("dta.", "etrace.cycles", "etrace.errors"))
    }
    assert pinned == LONG_STREAM_COUNTERS

