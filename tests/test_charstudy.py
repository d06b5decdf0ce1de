"""Unit tests for the characterisation-study helpers."""

import hashlib
import json

import numpy as np
import pytest

from repro.arch.isa import Instr
from repro.circuits.alu import AluOp
from repro.experiments.charstudy import (
    characterization_operands,
    collect_choke_events,
    instr_vector_stream,
    op_vector_stream,
)
from repro.pv.chip import fabricate_chip
from repro.pv.delaymodel import NTC, nominal_gate_delays
from repro.timing.choke import analyze_choke_event
from repro.timing.dta import cycle_timings
from repro.timing.sta import critical_path_delay


def test_operand_owm_constraints(rng):
    width = 16
    half = 1 << (width // 2)
    high = characterization_operands(rng, 200, width, "high")
    low = characterization_operands(rng, 200, width, "low")
    assert (high >= half).all()
    assert (low < half).all()


def test_operand_mixed_covers_both_classes(rng):
    width = 16
    half = 1 << (width // 2)
    values = characterization_operands(rng, 400, width, "mixed")
    assert (values < half).any()
    assert (values >= half).any()
    assert (values < (1 << width)).all()


def test_unknown_owm_constraint_rejected(rng):
    with pytest.raises(ValueError):
        characterization_operands(rng, 10, 16, "medium")


def test_op_vector_stream_selects_one_op(alu8, rng):
    inputs = op_vector_stream(alu8, AluOp.XOR, 20, rng)
    assert inputs.shape == (alu8.num_inputs, 20)
    select_rows = inputs[2 * alu8.width :, :]
    assert (select_rows.sum(axis=0) == 1).all()
    assert select_rows[int(AluOp.XOR)].all()


def test_instr_vector_stream_respects_roles(alu8, rng):
    # LUI: fixed shift amount = width/2
    inputs = instr_vector_stream(alu8, Instr.LUI, 10, rng)
    b_bits = inputs[alu8.width : 2 * alu8.width, :]
    b_values = (b_bits * (1 << np.arange(alu8.width))[:, None]).sum(axis=0)
    assert (b_values == alu8.width // 2).all()
    # fixed-shift SRL: b < width
    inputs = instr_vector_stream(alu8, Instr.SRL, 30, rng)
    b_bits = inputs[alu8.width : 2 * alu8.width, :]
    b_values = (b_bits * (1 << np.arange(alu8.width))[:, None]).sum(axis=0)
    assert (b_values < alu8.width).all()


def test_collect_choke_events_structure(alu8, alu8_circuit, rng):
    nominal = nominal_gate_delays(alu8.netlist, NTC)
    critical = critical_path_delay(alu8.netlist, nominal)
    found = []
    for seed in range(8):
        chip = fabricate_chip(alu8.netlist, NTC, seed=seed)
        inputs = op_vector_stream(alu8, AluOp.MULT, 60, rng)
        found.extend(
            collect_choke_events(alu8_circuit, chip, inputs, critical * 0.9)
        )
    assert found, "expected at least one choke event across 8 NTC chips"
    for event in found:
        assert event.cdl_percent > 0
        assert event.num_choke_gates >= 1


def test_collect_choke_events_respects_traceback_cap(alu8, alu8_circuit, rng):
    chip = fabricate_chip(alu8.netlist, NTC, seed=3)
    inputs = op_vector_stream(alu8, AluOp.MULT, 120, rng)
    nominal = nominal_gate_delays(alu8.netlist, NTC)
    # absurdly low baseline: every cycle qualifies, cap must bound work
    events = collect_choke_events(
        alu8_circuit, chip, inputs, nominal.max(), max_tracebacks=5
    )
    assert len(events) <= 5


def test_no_events_when_baseline_unreachable(alu8, alu8_circuit, rng):
    chip = fabricate_chip(alu8.netlist, NTC, seed=3)
    inputs = op_vector_stream(alu8, AluOp.BUFFER, 40, rng)
    events = collect_choke_events(alu8_circuit, chip, inputs, 1e9)
    assert events == []


def _per_pair_choke_events(circuit, chip, inputs, nominal_critical, max_tracebacks, ratio):
    """collect_choke_events as one analyze_choke_event call per pick."""
    timings = cycle_timings(circuit, inputs, chip.delays)
    over = np.flatnonzero(timings.t_late > nominal_critical)
    order = np.argsort(timings.t_late[over])
    if len(over) > max_tracebacks:
        order = order[np.linspace(0, len(over) - 1, max_tracebacks).astype(int)]
    events = []
    for index in over[order]:
        event = analyze_choke_event(
            circuit, chip, inputs[:, index], inputs[:, index + 1], nominal_critical,
            ratio_threshold=ratio,
        )
        if event is not None:
            events.append(event)
    return events


@pytest.mark.parametrize("op", [AluOp.MULT, AluOp.ROR, AluOp.ADD])
def test_collect_choke_events_equals_per_pair_loop(alu8, alu8_circuit, op):
    critical = critical_path_delay(alu8.netlist, nominal_gate_delays(alu8.netlist, NTC))
    inputs = op_vector_stream(alu8, op, 80, np.random.default_rng(int(op)))
    for seed in (1, 4):
        chip = fabricate_chip(alu8.netlist, NTC, seed=seed)
        for cap in (40, 6):
            batched = collect_choke_events(
                alu8_circuit, chip, inputs, critical * 0.9, max_tracebacks=cap
            )
            assert batched == _per_pair_choke_events(
                alu8_circuit, chip, inputs, critical * 0.9, cap, 2.0
            )


#: sha256 of the ``fig3_2 fig3_3 fig4_2 --fast`` JSON report, and its
#: DTA/choke counters, as produced by one analyze_choke_event call per pick
CHOKE_STUDIES_REPORT_SHA256 = (
    "a47ddd5be8ec922e3ac42221324e5705f05c613c767e80ee39a4d327ccbc9681"
)
CHOKE_STUDIES_COUNTERS = {
    "choke.events{category=CDL_H}": 460,
    "choke.events{category=CDL_L}": 14,
    "choke.events{category=CDL_MH}": 128,
    "choke.events{category=CDL_ML}": 76,
    "dta.chip_cycles": 31388,
    "dta.cycles_analyzed": 31388,
    "dta.evaluations": 532,
    "dta.gate_evals": 4834932,
    "dta.single_transitions": 2053,
    "dta.transitions_timed": 31388,
}


def test_choke_studies_report_bytes_and_counters_are_pinned(tmp_path):
    from repro.experiments.__main__ import main

    report = tmp_path / "report.json"
    metrics = tmp_path / "metrics.json"
    code = main([
        "fig3_2", "fig3_3", "fig4_2", "--fast", "--jobs", "1",
        "--out", str(report), "--format", "json", "--metrics-out", str(metrics),
    ])
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CHOKE_STUDIES_REPORT_SHA256
    counters = json.loads(metrics.read_text())["counters"]
    pinned = {k: v for k, v in counters.items() if k.startswith(("dta.", "choke.events"))}
    assert pinned == CHOKE_STUDIES_COUNTERS
