"""The trace generator as first written: the exact reference.

:func:`generate_trace` here is :func:`repro.arch.trace.generate_trace`
before it replayed its random draws in bulk: every draw is one scalar
call on a live ``np.random.Generator``, and each cycle writes its five
array entries one numpy scalar at a time.  It exists to validate the
replay, the way :mod:`repro.timing.reference` validates the DTA: the
``trace_vs_reference`` oracle requires equal arrays, dtypes and
``num_static`` on random benchmark configurations.
"""

from __future__ import annotations

import numpy as np

from repro.arch.isa import INSTRUCTIONS, Instr
from repro.arch.trace import _COMMON_CONSTANTS, BenchmarkConfig, InstructionTrace


class _StaticInstr:
    """One static instruction slot: fixed op, fixed operand pools."""

    __slots__ = ("static_id", "instr", "pool_a", "pool_b")

    def __init__(self, static_id: int, instr: Instr, pool_a: list[int], pool_b: list[int]):
        self.static_id = static_id
        self.instr = instr
        self.pool_a = pool_a
        self.pool_b = pool_b


def _random_value(rng: np.random.Generator, width: int, p_large: float) -> int:
    """One operand value following the benchmark's width profile."""
    if rng.random() < 0.2:
        return int(rng.choice(_COMMON_CONSTANTS)) & ((1 << width) - 1)
    half = width // 2
    if rng.random() < p_large:
        return int(rng.integers(1 << half, 1 << width, dtype=np.uint64))
    return int(rng.integers(0, 1 << half, dtype=np.uint64))


def _operand_b_pool(
    rng: np.random.Generator, spec, width: int, p_large: float, pool_size: int
) -> list[int]:
    """The operand-b value pool for a static slot, honouring b's role."""
    if spec.instr is Instr.LUI:
        # LUI's shift amount is the half-word width, a constant.
        return [width // 2]
    if spec.shift and spec.instr in (Instr.SLL, Instr.SRL, Instr.SRA):
        # Fixed-shift forms encode a constant 5-bit shamt per static
        # instruction.
        return [int(rng.integers(0, width))]
    if spec.shift:
        # Variable shifts read a register; small values dominate.
        return [int(rng.integers(0, width)) for _ in range(pool_size)]
    if spec.immediate:
        # 16-bit immediates are always in the lower half-word.
        return [int(rng.integers(0, 1 << (width // 2))) for _ in range(pool_size)]
    return [_random_value(rng, width, p_large) for _ in range(pool_size)]


def generate_trace(
    config: BenchmarkConfig,
    num_cycles: int,
    width: int = 32,
    seed: int | None = None,
) -> InstructionTrace:
    """Generate ``num_cycles`` of dynamic instructions for a benchmark.

    Deterministic for a given (config, num_cycles, width, seed); ``seed``
    defaults to the config's own seed.
    """
    if num_cycles < 1:
        raise ValueError("num_cycles must be positive")
    rng = np.random.default_rng(config.seed if seed is None else seed)

    instr_names = list(config.instr_mix)
    weights = np.array([config.instr_mix[i] for i in instr_names], dtype=float)
    weights = weights / weights.sum()

    # --- build the static program ---------------------------------------
    blocks: list[list[_StaticInstr]] = []
    static_id = 0
    for _ in range(config.num_blocks):
        size = int(rng.integers(config.block_size_min, config.block_size_max + 1))
        block: list[_StaticInstr] = []
        for _ in range(size):
            instr = instr_names[rng.choice(len(instr_names), p=weights)]
            spec = INSTRUCTIONS[instr]
            pool_a = [
                _random_value(rng, width, config.p_large)
                for _ in range(config.value_pool_size)
            ]
            pool_b = _operand_b_pool(
                rng, spec, width, config.p_large, config.value_pool_size
            )
            block.append(_StaticInstr(static_id, instr, pool_a, pool_b))
            static_id += 1
        blocks.append(block)
    block_weights = rng.dirichlet(np.ones(len(blocks)) * 2.0)

    # --- execute ----------------------------------------------------------
    instrs = np.empty(num_cycles, dtype=np.int16)
    static_ids = np.empty(num_cycles, dtype=np.int32)
    alu_ops = np.empty(num_cycles, dtype=np.int16)
    a_values = np.empty(num_cycles, dtype=np.uint64)
    b_values = np.empty(num_cycles, dtype=np.uint64)

    cycle = 0
    while cycle < num_cycles:
        block = blocks[rng.choice(len(blocks), p=block_weights)]
        repeats = 1 + rng.geometric(1.0 / max(config.block_repeat_mean, 1.0))
        for _ in range(repeats):
            for slot in block:
                if cycle >= num_cycles:
                    break
                spec = INSTRUCTIONS[slot.instr]
                if rng.random() < config.value_locality:
                    a = slot.pool_a[int(rng.integers(len(slot.pool_a)))]
                else:
                    a = _random_value(rng, width, config.p_large)
                if rng.random() < config.value_locality or spec.instr is Instr.LUI:
                    b = slot.pool_b[int(rng.integers(len(slot.pool_b)))]
                elif spec.shift:
                    b = int(rng.integers(0, width))
                elif spec.immediate:
                    b = int(rng.integers(0, 1 << (width // 2)))
                else:
                    b = _random_value(rng, width, config.p_large)
                instrs[cycle] = int(slot.instr)
                static_ids[cycle] = slot.static_id
                alu_ops[cycle] = int(spec.alu_op)
                a_values[cycle] = a
                b_values[cycle] = b
                cycle += 1
            if cycle >= num_cycles:
                break

    return InstructionTrace(
        name=config.name,
        width=width,
        instrs=instrs,
        static_ids=static_ids,
        alu_ops=alu_ops,
        a_values=a_values,
        b_values=b_values,
        num_static=static_id,
    )
