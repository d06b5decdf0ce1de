"""Vectorised boolean evaluation of a levelised circuit.

Evaluates every node's logic value for a whole batch of input vectors at
once.  Semantics must agree with the scalar reference
:func:`repro.gates.celllib.evaluate_gate` (property-tested).
"""

from __future__ import annotations

import numpy as np

from repro.gates.celllib import GateKind
from repro.timing.levelize import LevelizedCircuit

#: 2-input kind -> (elementwise op, invert the result)
_BINARY = {
    GateKind.AND2: (np.bitwise_and, False),
    GateKind.OR2: (np.bitwise_or, False),
    GateKind.NAND2: (np.bitwise_and, True),
    GateKind.NOR2: (np.bitwise_or, True),
    GateKind.XOR2: (np.bitwise_xor, False),
    GateKind.XNOR2: (np.bitwise_xor, True),
}


def evaluate_logic(circuit: LevelizedCircuit, inputs: np.ndarray) -> np.ndarray:
    """Evaluate all nodes for a batch of input vectors.

    ``inputs`` has shape (num_primary_inputs, num_vectors), rows ordered
    like ``circuit.input_ids``.  Returns a boolean (num_nodes,
    num_vectors) matrix of node values.
    """
    inputs = np.asarray(inputs, dtype=bool)
    if inputs.ndim != 2 or inputs.shape[0] != len(circuit.input_ids):
        raise ValueError(
            f"inputs must be ({len(circuit.input_ids)}, cycles), got {inputs.shape}"
        )
    num_vectors = inputs.shape[1]
    values = np.zeros((circuit.num_nodes, num_vectors), dtype=bool)
    values[circuit.input_ids] = inputs
    if len(circuit.const1_ids):
        values[circuit.const1_ids] = True
    # One step per logic level: gather each fanin slot once, compute
    # every kind segment in place in the level's fanin-0 rows, then
    # write the whole level back (a slice on a restricted circuit).
    for _nodes, in0, two, in1, mux, in2, segments, rows in circuit.levels:
        level = values[in0]
        b = values[in1]
        sel = values[in2]
        for kind, start, stop in segments:
            out = level[start:stop]
            if kind is GateKind.BUF or kind is GateKind.DBUF:
                continue
            if kind is GateKind.INV:
                np.invert(out, out=out)
            elif kind is GateKind.MUX2:
                np.copyto(out, b[start - two : stop - two], where=sel[start - mux : stop - mux])
            elif kind in _BINARY:
                op, invert = _BINARY[kind]
                op(out, b[start - two : stop - two], out=out)
                if invert:
                    np.invert(out, out=out)
            else:
                raise ValueError(f"cannot evaluate kind {kind!r}")
        values[rows] = level
    return values


def output_values(circuit: LevelizedCircuit, values: np.ndarray) -> np.ndarray:
    """Extract the primary-output rows of a value matrix."""
    return values[circuit.output_ids]


def output_words(circuit: LevelizedCircuit, values: np.ndarray) -> np.ndarray:
    """Pack primary-output bits into unsigned integers per vector.

    Output ordering follows the netlist's output registration order, which
    for the ALU is LSB first.
    """
    bits = output_values(circuit, values)
    weights = np.left_shift(np.ones(bits.shape[0], dtype=np.uint64), np.arange(bits.shape[0], dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[:, None]).sum(axis=0, dtype=np.uint64)
