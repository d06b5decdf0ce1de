"""Unit tests for choke-point analytics (CDL/CGL, choke paths)."""

import numpy as np
import pytest

from repro.pv.delaymodel import NTC
from repro.timing.choke import (
    CDL_CATEGORIES,
    analyze_choke_event,
    choke_gates_on_path,
    classify_cdl,
    fast_gates_on_path,
)
from repro.timing.paths import Path
from tests.util import forced_choke_chip


def test_classify_cdl_boundaries():
    assert classify_cdl(-1.0) is None
    assert classify_cdl(0.0) is None
    assert classify_cdl(3.0) == "CDL_L"
    assert classify_cdl(5.0) == "CDL_L"
    assert classify_cdl(7.5) == "CDL_ML"
    assert classify_cdl(10.0) == "CDL_ML"
    assert classify_cdl(15.0) == "CDL_MH"
    assert classify_cdl(20.0) == "CDL_MH"
    assert classify_cdl(27.45) == "CDL_H"
    assert classify_cdl(90.0) == "CDL_H"


def test_categories_tuple():
    assert CDL_CATEGORIES == ("CDL_L", "CDL_ML", "CDL_MH", "CDL_H")


def test_forced_choke_event_detected():
    fx = forced_choke_chip()  # deep=4 bufs, short=2 bufs, one choked to 100ps
    # sel=1 selects the short branch (mux computes b-input when sel); toggle b
    prev = np.array([0, 0, 1])
    curr = np.array([0, 1, 1])
    event = analyze_choke_event(
        fx.circuit, fx.chip, prev, curr, fx.nominal_critical
    )
    assert event is not None
    # short branch: 10 + 100 + 10(mux) = 120 -> CDL = 140%
    assert event.cdl_percent == pytest.approx(140.0)
    assert fx.short_arrival == pytest.approx(120.0)
    assert event.category == "CDL_H"
    assert fx.choke_gate in event.choke_gate_ids
    assert event.num_choke_gates == 1
    assert event.cgl_percent == pytest.approx(100.0 / fx.netlist.num_gates)
    assert event.path.nodes[-1] == fx.out
    assert event.path.nodes[0] == fx.b


def test_resolve_gates_and_blame_line_name_the_planted_gate():
    fx = forced_choke_chip()
    event = analyze_choke_event(
        fx.circuit, fx.chip, np.array([0, 0, 1]), np.array([0, 1, 1]),
        fx.nominal_critical,
    )
    labels = event.resolve_gates(fx.netlist)
    assert len(labels) == event.num_choke_gates == 1
    # gate name + cell kind + levelised depth, e.g. "n8[BUF]@L2"
    assert labels[0].startswith(f"{fx.netlist.name_of(fx.choke_gate)}[BUF]@L")
    line = event.blame_line(fx.netlist)
    assert line.startswith("CDL_H (+140.0% over nominal, 1 gate(s)): ")
    assert labels[0] in line


def test_no_event_when_nothing_toggles():
    fx = forced_choke_chip()
    prev = np.array([1, 1, 1])
    curr = np.array([1, 1, 1])
    event = analyze_choke_event(fx.circuit, fx.chip, prev, curr, 50.0)
    assert event is None  # nothing toggles at all


def test_no_event_when_choke_branch_untoggled():
    fx = forced_choke_chip()
    # only the deep branch toggles (b constant, sel=0 selects deep):
    # arrival = 50 = nominal critical, so no choke path is created
    prev = np.array([0, 0, 0])
    curr = np.array([1, 0, 0])
    event = analyze_choke_event(fx.circuit, fx.chip, prev, curr, 50.0)
    assert event is None


def test_invalid_nominal_critical_rejected():
    fx = forced_choke_chip()
    with pytest.raises(ValueError):
        analyze_choke_event(
            fx.circuit, fx.chip, np.array([0, 0, 0]), np.array([0, 1, 0]), 0.0
        )


def test_choke_and_fast_gates_on_path():
    fx = forced_choke_chip()
    fx.chip.delays[4] = 2.0  # make one deep-branch buffer fast (node 4 is a BUF)
    path = Path(nodes=(fx.b, fx.choke_gate, fx.out), delay=120.0)
    assert choke_gates_on_path(path, fx.chip) == (fx.choke_gate,)
    fast_path = Path(nodes=(4,), delay=2.0)
    assert fast_gates_on_path(fast_path, fx.chip) == (4,)


def test_real_chip_choke_events_have_valid_structure(alu8, alu8_circuit):
    """On a fabricated ALU chip, any detected event references real
    affected gates lying on the traced path."""
    from repro.pv.chip import fabricate_chip
    from repro.pv.delaymodel import nominal_gate_delays
    from repro.timing.sta import critical_path_delay

    nominal = nominal_gate_delays(alu8.netlist, NTC)
    critical = critical_path_delay(alu8.netlist, nominal)
    rng = np.random.default_rng(3)
    found = 0
    for seed in range(12):
        chip = fabricate_chip(alu8.netlist, NTC, seed=seed)
        for _ in range(15):
            ops = rng.integers(0, 13, size=2)
            a = rng.integers(0, 256, size=2, dtype=np.uint64)
            b = rng.integers(0, 256, size=2, dtype=np.uint64)
            inputs = alu8.encode_batch(ops, a, b)
            event = analyze_choke_event(
                alu8_circuit, chip, inputs[:, 0], inputs[:, 1], critical
            )
            if event is None:
                continue
            found += 1
            assert event.cdl_percent > 0
            assert 0 < event.cgl_percent <= 100
            assert event.category in CDL_CATEGORIES
            for gate in event.choke_gate_ids:
                assert gate in event.path.nodes
    # with 12 NTC chips and random vectors we expect at least one event
    assert found >= 1


def test_batched_analysis_equals_per_pair_calls(alu8, alu8_circuit):
    """One (num_inputs, K) call returns exactly the K per-pair results."""
    from repro.pv.chip import fabricate_chip
    from repro.pv.delaymodel import nominal_gate_delays
    from repro.timing.sta import critical_path_delay

    critical = critical_path_delay(alu8.netlist, nominal_gate_delays(alu8.netlist, NTC))
    rng = np.random.default_rng(5)
    ops = rng.integers(0, 13, size=41)
    a = rng.integers(0, 256, size=41, dtype=np.uint64)
    b = rng.integers(0, 256, size=41, dtype=np.uint64)
    inputs = alu8.encode_batch(ops, a, b)
    picks = np.array([7, 0, 31, 7, 12, 39, 3, 22])  # unordered, one repeat
    found = 0
    for seed in range(6):
        chip = fabricate_chip(alu8.netlist, NTC, seed=seed)
        batched = analyze_choke_event(
            alu8_circuit, chip, inputs[:, picks], inputs[:, picks + 1], critical * 0.9
        )
        singles = [
            analyze_choke_event(
                alu8_circuit, chip, inputs[:, i], inputs[:, i + 1], critical * 0.9
            )
            for i in picks
        ]
        assert batched == singles
        found += sum(event is not None for event in batched)
    assert found >= 1
