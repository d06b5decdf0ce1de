"""The execute-stage ALU: netlist construction and reference semantics.

This is the circuit the paper's experiments time cycle-by-cycle.  The ALU
takes two operand words and a one-hot operation select, computes every
functional unit in parallel (adder/subtractor, array multiplier, four
barrel shifters, the logic unit, the LOAD address path and the BUFFER
pass-through) and gates the selected result through an AND-OR mux tree --
the standard synthesised ALU structure, in which a change of either the
operands or the selected operation re-sensitises paths throughout the
whole cloud.

The operation set is the union of the 11 operations characterised in the
DATE'17 choke-point study (ADD, SUB, MULT, OR, AND, XOR, LOAD, ASR, LSR,
ROR, BUFFER) and the extra operations the MIPS-like ISA of the
architecture layer needs (SLL, NOR).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.gates.builder import NetlistBuilder, Word
from repro.gates.netlist import Netlist

from repro.circuits.adders import add_sub_unit
from repro.circuits.logic_unit import logic_unit
from repro.circuits.multiplier import half_width_multiplier
from repro.circuits.shifter import barrel_shift_left, barrel_shift_right, shift_amount_bits


class AluOp(enum.IntEnum):
    """ALU operations (one-hot selected)."""

    ADD = 0
    SUB = 1
    MULT = 2
    OR = 3
    AND = 4
    XOR = 5
    NOR = 6
    LOAD = 7
    ASR = 8
    LSR = 9
    ROR = 10
    SLL = 11
    BUFFER = 12


#: The 11 operations of the DATE 2017 choke-point characterisation (Fig. 3.2).
CH3_OPS: tuple[AluOp, ...] = (
    AluOp.ADD,
    AluOp.SUB,
    AluOp.MULT,
    AluOp.OR,
    AluOp.AND,
    AluOp.XOR,
    AluOp.LOAD,
    AluOp.ASR,
    AluOp.LSR,
    AluOp.ROR,
    AluOp.BUFFER,
)


def alu_reference(op: AluOp, a: int, b: int, width: int) -> int:
    """Pure-Python semantics of the ALU (the golden model for tests)."""
    mask = (1 << width) - 1
    a &= mask
    b &= mask
    shamt = b & (width - 1)
    half = max(1, width // 2)
    half_mask = (1 << half) - 1

    if op is AluOp.ADD or op is AluOp.LOAD:
        return (a + b) & mask
    if op is AluOp.SUB:
        return (a - b) & mask
    if op is AluOp.MULT:
        return ((a & half_mask) * (b & half_mask)) & mask
    if op is AluOp.OR:
        return a | b
    if op is AluOp.AND:
        return a & b
    if op is AluOp.XOR:
        return a ^ b
    if op is AluOp.NOR:
        return (~(a | b)) & mask
    if op is AluOp.LSR:
        return a >> shamt
    if op is AluOp.ASR:
        sign = a >> (width - 1)
        shifted = a >> shamt
        if sign and shamt:
            shifted |= (mask << (width - shamt)) & mask
        return shifted
    if op is AluOp.ROR:
        if shamt == 0:
            return a
        return ((a >> shamt) | (a << (width - shamt))) & mask
    if op is AluOp.SLL:
        return (a << shamt) & mask
    if op is AluOp.BUFFER:
        return a
    raise ValueError(f"unknown ALU op {op!r}")


@dataclass
class Alu:
    """A built ALU netlist plus the bookkeeping to drive it.

    Primary-input ordering (and therefore the row ordering of encoded
    input matrices) is: ``a[0..W-1]``, ``b[0..W-1]``, then one select bit
    per operation in :class:`AluOp` order.
    """

    netlist: Netlist
    width: int
    ops: tuple[AluOp, ...]
    a_bits: list[int]
    b_bits: list[int]
    sel_bits: dict[AluOp, int]
    output_bits: list[int] = field(default_factory=list)
    unit_output_bits: dict[AluOp, list[int]] = field(default_factory=dict)
    pad_gate_ids: list[int] = field(default_factory=list)

    @property
    def num_inputs(self) -> int:
        return len(self.netlist.input_ids)

    @property
    def select_rows(self) -> list[int]:
        """Input rows of the one-hot operation selects, in :attr:`ops`
        order: the controls of the ALU's levelised circuit."""
        rows = {node: row for row, node in enumerate(self.netlist.input_ids)}
        return [rows[self.sel_bits[op]] for op in self.ops]

    def encode(self, op: AluOp, a: int, b: int) -> np.ndarray:
        """Encode one (op, a, b) into a primary-input boolean vector."""
        return self.encode_batch(
            np.array([int(op)], dtype=np.int64),
            np.array([a], dtype=np.uint64),
            np.array([b], dtype=np.uint64),
        )[:, 0]

    def encode_batch(
        self, ops: np.ndarray, a_values: np.ndarray, b_values: np.ndarray
    ) -> np.ndarray:
        """Encode arrays of (op, a, b) into a (num_inputs, cycles) matrix.

        ``ops`` holds :class:`AluOp` integer values; operand arrays are
        unsigned integers (masked to the ALU width).
        """
        ops = np.asarray(ops, dtype=np.int64)
        a_values = np.asarray(a_values, dtype=np.uint64)
        b_values = np.asarray(b_values, dtype=np.uint64)
        if not (len(ops) == len(a_values) == len(b_values)):
            raise ValueError("ops/a/b arrays must have equal length")
        cycles = len(ops)
        width = self.width
        matrix = np.zeros((self.num_inputs, cycles), dtype=bool)
        for i in range(width):
            shift = np.uint64(i)
            matrix[i, :] = (a_values >> shift) & np.uint64(1)
            matrix[width + i, :] = (b_values >> shift) & np.uint64(1)
        base = 2 * width
        for op in self.ops:
            matrix[base + int(op), :] = ops == int(op)
        return matrix

    def reference(self, op: AluOp, a: int, b: int) -> int:
        return alu_reference(op, a, b, self.width)


def build_alu(
    width: int = 32,
    use_lookahead_adder: bool = False,
    branch_pads: dict[tuple[AluOp, int], int] | None = None,
    sel_pads: dict[AluOp, int] | None = None,
) -> Alu:
    """Build the ALU netlist for the given operand width.

    ``width`` must be a power of two >= 4 (the barrel shifters and the
    half-width multiplier require it).

    ``branch_pads`` maps ``(op, bit_index)`` to a count of delay buffers
    inserted in series between that unit output bit and its result-mux AND
    gate; ``sel_pads`` maps ``op`` to a pad count on the select line's
    path into the result mux.  These are the hold-fix ("buffer
    insertion") points planned by :mod:`repro.circuits.ex_stage`; the
    inserted cells are recorded in :attr:`Alu.pad_gate_ids` and are the
    candidate *choke buffers* of the paper's Chapter-4 analysis.
    """
    if width < 4 or width & (width - 1):
        raise ValueError(f"ALU width must be a power of two >= 4, got {width}")
    branch_pads = branch_pads or {}
    sel_pads = sel_pads or {}

    builder = NetlistBuilder(f"alu{width}")
    a = builder.input_word("a", width)
    b = builder.input_word("b", width)
    ops = tuple(AluOp)
    sel = {op: builder.input(f"sel_{op.name}") for op in ops}

    unit_outputs: dict[AluOp, Word] = {}

    # Shared adder/subtractor: computes a+b normally, a-b when SUB selected.
    sum_word, _carry = add_sub_unit(
        builder, a, b, sel[AluOp.SUB], use_lookahead=use_lookahead_adder
    )
    unit_outputs[AluOp.ADD] = sum_word
    unit_outputs[AluOp.SUB] = sum_word
    # LOAD = effective-address computation followed by an alignment/buffer
    # stage; reuses the adder and is therefore slightly deeper than ADD.
    unit_outputs[AluOp.LOAD] = [builder.buf(builder.buf(bit)) for bit in sum_word]

    unit_outputs[AluOp.MULT] = half_width_multiplier(builder, a, b)

    for name, word in logic_unit(builder, a, b).items():
        unit_outputs[AluOp[name]] = word

    stages = shift_amount_bits(width)
    shamt = b[:stages]
    unit_outputs[AluOp.LSR] = barrel_shift_right(builder, a, shamt, "logical")
    unit_outputs[AluOp.ASR] = barrel_shift_right(builder, a, shamt, "arith")
    unit_outputs[AluOp.ROR] = barrel_shift_right(builder, a, shamt, "rotate")
    unit_outputs[AluOp.SLL] = barrel_shift_left(builder, a, shamt)

    # BUFFER simply passes operand a through one buffer per bit: the
    # shallowest path population in the ALU.
    unit_outputs[AluOp.BUFFER] = [builder.buf(bit) for bit in a]

    # Hold-fix padding: delay buffers on the select lines and on the unit
    # branch bits feeding the result mux, as planned by the EX-stage
    # builder.  Raw (unpadded) selects keep driving the functional units
    # themselves (e.g. the SUB select into the adder).
    pad_ids: list[int] = []

    def _pad(node: int, count: int) -> int:
        for _ in range(count):
            node = builder.dbuf(node)
            pad_ids.append(node)
        return node

    padded_sel = {op: _pad(sel[op], sel_pads.get(op, 0)) for op in ops}

    # Result mux: AND-OR tree gating each unit output with its select.
    result: Word = []
    for bit_index in range(width):
        gated = []
        for op in ops:
            branch = _pad(
                unit_outputs[op][bit_index], branch_pads.get((op, bit_index), 0)
            )
            gated.append(builder.and_(padded_sel[op], branch))
        result.append(builder.or_many(gated))
    builder.output_word("result", result)

    return Alu(
        netlist=builder.build(),
        width=width,
        ops=ops,
        a_bits=a,
        b_bits=b,
        sel_bits=sel,
        output_bits=result,
        unit_output_bits={op: list(word) for op, word in unit_outputs.items()},
        pad_gate_ids=pad_ids,
    )
