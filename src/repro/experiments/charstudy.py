"""Shared machinery for the per-operation choke characterisation studies
(Figs. 3.2, 3.3 and 4.2): operand generation and choke-event extraction.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.arch.isa import INSTRUCTIONS, Instr
from repro.circuits.alu import Alu, AluOp
from repro.pv.chip import ChipSample
from repro.timing.choke import ChokeEvent, analyze_choke_event
from repro.timing.dta import cycle_timings
from repro.timing.levelize import LevelizedCircuit

_COMMON = np.array([0, 1, 2, 3, 4, 8, 16, 0xFF, 0xFFFF], dtype=np.uint64)


def stable_seed(*parts) -> int:
    """Deterministic RNG seed from a mixed key.

    Builtin ``hash()`` is salted per interpreter process for strings
    (PYTHONHASHSEED), so seeding from it makes a "seeded" study produce
    different operand streams on every invocation.  CRC32 over the key's
    repr is stable across processes and platforms.
    """
    return zlib.crc32(repr(parts).encode("utf-8")) & 0x7FFFFFFF


def characterization_operands(
    rng: np.random.Generator, count: int, width: int, owm: str = "mixed"
) -> np.ndarray:
    """Operand values covering a typical application range.

    ``owm`` constrains the significant width: ``"high"`` forces the
    leftmost set bit into the upper half-word, ``"low"`` keeps it in the
    lower half, ``"mixed"`` draws both plus common constants.
    """
    half = width // 2
    if owm == "high":
        return rng.integers(1 << half, 1 << width, size=count, dtype=np.uint64)
    if owm == "low":
        return rng.integers(0, 1 << half, size=count, dtype=np.uint64)
    if owm != "mixed":
        raise ValueError(f"unknown owm constraint {owm!r}")
    values = np.where(
        rng.random(count) < 0.5,
        rng.integers(0, 1 << half, size=count, dtype=np.uint64),
        rng.integers(1 << half, 1 << width, size=count, dtype=np.uint64),
    )
    constant_mask = rng.random(count) < 0.15
    constants = _COMMON[rng.integers(0, len(_COMMON), size=count)]
    mask = np.uint64((1 << width) - 1)
    return np.where(constant_mask, constants & mask, values)


def op_vector_stream(
    alu: Alu,
    op: AluOp,
    count: int,
    rng: np.random.Generator,
    owm: str = "mixed",
) -> np.ndarray:
    """Encoded input matrix: ``count`` consecutive vectors of one ALU op."""
    ops = np.full(count, int(op), dtype=np.int64)
    a = characterization_operands(rng, count, alu.width, owm)
    b = characterization_operands(rng, count, alu.width, owm)
    return alu.encode_batch(ops, a, b)


def instr_vector_stream(
    alu: Alu,
    instr: Instr,
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Encoded input matrix for one ISA instruction's typical operands."""
    spec = INSTRUCTIONS[instr]
    width = alu.width
    ops = np.full(count, int(spec.alu_op), dtype=np.int64)
    a = characterization_operands(rng, count, width)
    if instr is Instr.LUI:
        a = rng.integers(0, 1 << (width // 2), size=count, dtype=np.uint64)
        b = np.full(count, width // 2, dtype=np.uint64)
    elif spec.shift:
        b = rng.integers(0, width, size=count, dtype=np.uint64)
    elif spec.immediate:
        b = rng.integers(0, 1 << (width // 2), size=count, dtype=np.uint64)
    else:
        b = characterization_operands(rng, count, width)
    return alu.encode_batch(ops, a, b)


def collect_choke_events(
    circuit: LevelizedCircuit,
    chip: ChipSample,
    inputs: np.ndarray,
    nominal_critical: float,
    max_tracebacks: int = 40,
    ratio_threshold: float = 2.0,
) -> list[ChokeEvent]:
    """Find and analyse choke events in a vector stream on one chip.

    Runs batch DTA, selects the cycles whose sensitised delay exceeds the
    PV-free critical path, and traces up to ``max_tracebacks`` of them
    (spread across the CDL range so every category gets candidates).
    """
    timings = cycle_timings(circuit, inputs, chip.delays)
    over = np.flatnonzero(timings.t_late > nominal_critical)
    if len(over) == 0:
        return []
    # Spread the traceback budget across the observed CDL range.
    order = np.argsort(timings.t_late[over])
    if len(over) > max_tracebacks:
        picks = np.linspace(0, len(over) - 1, max_tracebacks).astype(int)
        order = order[picks]
    picks = over[order]
    # One pair-form propagation times every pick of this (chip, op).
    events = analyze_choke_event(
        circuit,
        chip,
        inputs[:, picks],
        inputs[:, picks + 1],
        nominal_critical,
        ratio_threshold=ratio_threshold,
    )
    return [event for event in events if event is not None]
