"""Unit tests for EX-stage planning (clocking + hold-buffer insertion)."""

import numpy as np
import pytest

from repro.circuits.alu import AluOp, build_alu
from repro.circuits.ex_stage import build_ex_stage
from repro.pv.delaymodel import NTC, nominal_gate_delays
from repro.timing.sta import arrival_times


def test_clock_period_carries_margin(stage16_ntc):
    assert stage16_ntc.clock_period > stage16_ntc.nominal_critical_delay
    # margin bounded: padding may not push the critical path past the clock
    assert stage16_ntc.nominal_critical_delay < stage16_ntc.clock_period


def test_hold_constraint_is_fraction_of_clock(stage16_ntc):
    assert 0 < stage16_ntc.hold_constraint < 0.25 * stage16_ntc.clock_period


def test_buffered_stage_meets_hold_nominally(stage16_ntc):
    assert stage16_ntc.nominal_min_delay >= stage16_ntc.hold_constraint


def test_bufferless_stage_violates_hold_nominally(stage16_ntc_bufferless):
    stage = stage16_ntc_bufferless
    assert stage.num_pad_cells == 0
    assert stage.nominal_min_delay < stage.hold_constraint


def test_unpadded_stage_equals_a_fresh_double_build(stage16_ntc_bufferless):
    """An unbuffered stage reuses its probe netlist, delays and STA
    passes; the result equals probing one ALU and building another."""
    stage = stage16_ntc_bufferless
    probe = build_alu(16)
    probe_delays = nominal_gate_delays(probe.netlist, NTC)
    critical = max(
        float(arrival_times(probe.netlist, probe_delays, "max")[bit])
        for bit in probe.output_bits
    )
    fresh = build_alu(16, branch_pads={}, sel_pads={})
    assert list(stage.netlist.iter_nodes()) == list(fresh.netlist.iter_nodes())
    assert stage.netlist.input_ids == fresh.netlist.input_ids
    assert stage.netlist.output_ids == fresh.netlist.output_ids
    assert stage.clock_period == critical * 1.18
    assert stage.hold_constraint == 0.12 * stage.clock_period
    np.testing.assert_array_equal(
        stage.nominal_delays, nominal_gate_delays(fresh.netlist, NTC)
    )


def test_buffered_stage_has_pad_cells(stage16_ntc):
    assert stage16_ntc.num_pad_cells > 0
    assert stage16_ntc.netlist.num_gates > stage16_ntc_gate_floor()


def stage16_ntc_gate_floor():
    return 1000  # the bare 16-bit ALU is ~1.2k gates


def test_pads_identical_across_corners(stage16_ntc, stage16_stc):
    """Pad planning scales with the corner's nominal delay factor on both
    sides, so STC and NTC stages share the same netlist structure."""
    assert stage16_ntc.num_pad_cells == stage16_stc.num_pad_cells
    assert stage16_ntc.netlist.num_nodes == stage16_stc.netlist.num_nodes


def test_stc_clock_is_much_faster(stage16_ntc, stage16_stc):
    assert stage16_stc.clock_period < 0.25 * stage16_ntc.clock_period


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_ex_stage(16, NTC, hold_fraction=0.0)
    with pytest.raises(ValueError):
        build_ex_stage(16, NTC, hold_fraction=1.5)
    with pytest.raises(ValueError):
        build_ex_stage(16, NTC, hold_margin=0.9)


def test_functionality_preserved_with_pads(stage16_ntc):
    """Hold padding must not change the ALU's logic."""
    from repro.circuits.alu import alu_reference
    from repro.timing.logic_eval import evaluate_logic, output_words

    rng = np.random.default_rng(17)
    ops = rng.integers(0, len(AluOp), 30)
    a = rng.integers(0, 1 << 16, 30, dtype=np.uint64)
    b = rng.integers(0, 1 << 16, 30, dtype=np.uint64)
    values = evaluate_logic(
        stage16_ntc.circuit, stage16_ntc.encode_batch(ops, a, b)
    )
    got = output_words(stage16_ntc.circuit, values)
    for i in range(30):
        expected = alu_reference(AluOp(int(ops[i])), int(a[i]), int(b[i]), 16)
        assert int(got[i]) == expected


def test_pads_do_not_break_setup(stage16_ntc):
    """All padded paths stay within the clock headroom."""
    arrivals = arrival_times(stage16_ntc.netlist, stage16_ntc.nominal_delays, "max")
    worst = max(float(arrivals[bit]) for bit in stage16_ntc.alu.output_bits)
    assert worst <= stage16_ntc.clock_period


def test_fabricate_wires_through(stage16_ntc):
    chip = stage16_ntc.fabricate(seed=1)
    assert chip.corner is NTC
    assert chip.num_nodes == stage16_ntc.netlist.num_nodes


def test_timings_wrapper(stage16_ntc, chip16):
    rng = np.random.default_rng(3)
    ops = rng.integers(0, len(AluOp), 20)
    a = rng.integers(0, 1 << 16, 20, dtype=np.uint64)
    b = rng.integers(0, 1 << 16, 20, dtype=np.uint64)
    timings = stage16_ntc.timings(chip16, stage16_ntc.encode_batch(ops, a, b))
    assert len(timings) == 19
    assert (timings.t_late >= 0).all()


def test_pad_cells_are_dbufs(stage16_ntc):
    from repro.gates.celllib import GateKind

    for node in stage16_ntc.alu.pad_gate_ids[:50]:
        assert stage16_ntc.netlist.kind(node) is GateKind.DBUF
