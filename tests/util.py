"""Shared test helpers.

The circuit/chip/trace builders the tests used to define privately now
live in :mod:`repro.qa.circuits` — one canonical implementation that
both the unit tests and the QA fuzz generators construct structures
from — and are re-exported here so test code keeps importing from one
place.  Only the word-level ALU helpers remain test-local.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.obs import audit
from repro.qa.circuits import (  # noqa: F401 - re-exported for the tests
    ChokeFixture,
    all_none,
    chain_circuit,
    forced_choke_chip,
    random_gate_delays,
    random_netlist,
    synthetic_error_trace,
)


def eval_word(builder, word, input_bits) -> int:
    """Evaluate a built word circuit on one input vector.

    ``input_bits`` is the flat list of primary-input values in creation
    order; returns the word's value as an unsigned integer (LSB first).
    """
    from repro.timing.levelize import levelize
    from repro.timing.logic_eval import evaluate_logic

    netlist = builder.netlist
    if not netlist.output_ids:
        for i, bit in enumerate(word):
            netlist.mark_output(f"__w[{i}]", bit)
    circuit = levelize(netlist)
    inputs = np.array([[bool(b)] for b in input_bits], dtype=bool)
    values = evaluate_logic(circuit, inputs)
    return sum(int(values[bit, 0]) << i for i, bit in enumerate(word))


def int_to_bits(value: int, width: int) -> list[int]:
    return [(value >> i) & 1 for i in range(width)]


def simulate_audited(simulate, scheme, trace):
    """``simulate(scheme, trace)`` under a fresh full audit sink: the
    result fields (``extra`` included) and the audit run's digest."""
    with audit.recording() as sink:
        result = simulate(scheme, trace)
    return dataclasses.asdict(result), sink.runs[-1].digest
