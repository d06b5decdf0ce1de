"""Synthetic benchmark trace generation (the SPEC CPU2000 substitute).

SPEC binaries and the FabScalar RTL are not available, so each benchmark
is modelled as a seeded synthetic program whose *statistical* properties
match what the paper's results depend on:

* **instruction mix** -- which ALU operations dominate,
* **sequence locality** -- programs execute loops of static instructions,
  so errant (initialising, sensitising) instruction pairs repeat; the
  number of *distinct static instructions* controls how many unique error
  instances a benchmark can produce (the paper's mcf has few, vortex
  many),
* **operand value locality** -- dynamic instances of a static instruction
  tend to reuse operand values (the basis of the paper's prediction
  principle, §4.3.3), and
* **operand width profile** -- the Large/Small operand balance that
  drives OWM and the Chapter-4 size classes.

A program is a set of basic blocks; execution repeatedly picks a block,
runs it a geometrically-distributed number of times (loop behaviour), and
moves on.  Every static instruction slot has fixed per-slot operand value
pools plus an escape probability for fresh values.

Exact replay
------------
The traces are those of scalar calls on ``np.random.default_rng(seed)``
(``random()``, ``integers(...)``, ``choice(..., p=...)``), made one draw
at a time in a data-dependent order; :mod:`repro.qa.trace_reference`
keeps that generator.  Each such call costs microseconds of dispatch, so
:class:`DrawReplay` makes none of them.  It pulls the bit generator's raw
64-bit words in bulk (``random_raw(n).tolist()``) and recomputes numpy's
algorithms on them:

* ``random()`` is ``(word >> 11) * 2**-53``;
* ``integers(low, high)`` is Lemire's method with numpy's rejection
  threshold: 32-bit up to a range of 2**32, fed by PCG64's buffered
  32-bit output (a word's low half, then its high half, kept across
  calls); 64-bit above.  A one-value range draws nothing;
* ``choice(n, p=w)`` is one ``random()`` looked up with ``bisect_right``
  in ``cumsum(w) / cumsum(w)[-1]``, numpy's cdf and side.

``dirichlet`` (once per trace) and ``geometric`` (once per block run)
run on the live generator.  Before each, the replay restores the state
saved before its raw words, advances it by the words consumed, and
writes back the buffered half-word; after it, the replay starts afresh
from the live state.  The arrays are built once, at the end.
The ``draws_vs_generator`` and ``trace_vs_reference`` QA oracles check
both levels against numpy and against the reference.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import cycle, islice
from operator import length_hint

import numpy as np

from repro.arch.isa import INSTRUCTIONS, Instr, InstrSpec

_COMMON_CONSTANTS = (0, 1, 2, 3, 4, 8, 16, 0xFF, 0xFFFF)
#: raw 64-bit words pulled from the bit generator per bulk fill.  Each
#: sync (one per block run) drops the rest of the fill; a block run
#: consumes a median of 170-196 words (p90 613-779) in the six benchmarks'
#: traces at 2,000-20,000 cycles.  With ``random_raw(n).tolist()`` at 7.6 us
#: for 256 words and 14.9 us for 512 (numpy 2.4.6, 2-core x86 host), the
#: fills for six 20,000-cycle traces cost 28 ms at 256, 27 ms at 128 and
#: 36 ms at 512, of about 300 ms; at 2,000 cycles 4.8-5.3 ms at 128-512.
_FILL = 256


@dataclass(frozen=True)
class BenchmarkConfig:
    """Statistical profile of one synthetic benchmark."""

    name: str
    instr_mix: dict[Instr, float]
    num_blocks: int
    block_size_min: int
    block_size_max: int
    block_repeat_mean: float
    value_pool_size: int
    value_locality: float
    p_large: float
    seed: int

    def __post_init__(self) -> None:
        if not self.instr_mix:
            raise ValueError("instr_mix must be non-empty")
        if self.block_size_min < 1 or self.block_size_max < self.block_size_min:
            raise ValueError("invalid block size range")
        if not 0.0 <= self.value_locality <= 1.0:
            raise ValueError("value_locality must be in [0, 1]")
        if not 0.0 <= self.p_large <= 1.0:
            raise ValueError("p_large must be in [0, 1]")


@dataclass
class InstructionTrace:
    """A generated dynamic instruction stream for the EX stage."""

    name: str
    width: int
    instrs: np.ndarray  # Instr values, int16
    static_ids: np.ndarray  # static-instruction id per cycle, int32
    alu_ops: np.ndarray  # AluOp values, int16
    a_values: np.ndarray  # uint64
    b_values: np.ndarray  # uint64
    num_static: int = 0

    def __len__(self) -> int:
        return len(self.instrs)

    def encode_inputs(self, alu) -> np.ndarray:
        """Encode the trace as a primary-input matrix for ``alu``."""
        return alu.encode_batch(self.alu_ops, self.a_values, self.b_values)


class DrawReplay:
    """A numpy ``Generator``'s scalar draws, recomputed from bulk raw words.

    ``random``, ``integers`` and ``choice`` return exactly what the same
    sequence of scalar calls on ``generator`` (PCG64) returns; ``call``
    runs any other method of ``generator`` at the replay's position.
    Raw words are pulled ``_FILL`` at a time from the state ``_saved``;
    ``_has32``/``_high32`` mirror PCG64's buffered high half-word
    (``has_uint32``/``uinteger``).
    """

    __slots__ = (
        "generator", "_bitgen", "_saved", "_filled", "_words", "_next_word",
        "_has32", "_high32",
    )

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self._bitgen = generator.bit_generator
        self._restart()

    def _restart(self) -> None:
        """Take the live generator's state as the origin of the raw words."""
        self._saved = state = self._bitgen.state
        self._has32 = state["has_uint32"]
        self._high32 = state["uinteger"]
        self._filled = 0
        self._words = iter(())
        self._next_word = self._words.__next__

    def _refill(self) -> int:
        """Pull the next raw words in bulk; return the first."""
        self._words = iter(self._bitgen.random_raw(_FILL).tolist())
        self._next_word = self._words.__next__
        self._filled += _FILL
        return self._next_word()

    def _sync(self) -> None:
        """Set the live generator to the replay's position: the saved
        state advanced by the words consumed, buffered half-word included."""
        bitgen = self._bitgen
        bitgen.state = self._saved
        bitgen.advance(self._filled - length_hint(self._words))  # clears the buffer
        state = bitgen.state
        state["has_uint32"] = self._has32
        state["uinteger"] = self._high32
        bitgen.state = state

    def _word(self) -> int:
        try:
            return self._next_word()
        except StopIteration:
            return self._refill()

    def _half_word(self) -> int:
        """PCG64's 32-bit output: a fresh word's low half, then its high half."""
        if self._has32:
            self._has32 = 0
            return self._high32
        word = self._word()
        self._has32 = 1
        self._high32 = word >> 32
        return word & 0xFFFF_FFFF

    def random(self) -> float:
        """``generator.random()``."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, low: int, high: int | None = None) -> int:
        """``generator.integers(low, high)``: Lemire's method, numpy's threshold."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span < 1:
            raise ValueError("high <= low")
        if span == 1:
            return low  # a one-value range draws nothing
        # numpy returns the raw half-word or word for a full 2**32 or
        # 2**64 range; with exact integers Lemire's step does the same
        if span <= 1 << 32:
            m = self._half_word() * span
            if (m & 0xFFFF_FFFF) < span:
                threshold = (1 << 32) % span
                while (m & 0xFFFF_FFFF) < threshold:
                    m = self._half_word() * span
            return low + (m >> 32)
        m = self._word() * span
        if (m & 0xFFFF_FFFF_FFFF_FFFF) < span:
            threshold = (1 << 64) % span
            while (m & 0xFFFF_FFFF_FFFF_FFFF) < threshold:
                m = self._word() * span
        return low + (m >> 64)

    def choice(self, cdf: list[float]) -> int:
        """``generator.choice(len(cdf), p=p)`` for ``cdf = choice_cdf(p)``."""
        return bisect_right(cdf, self.random())

    def call(self, method, *args):
        """``method(*args)``, a method of ``generator``, at the replay's position."""
        self._sync()
        result = method(*args)
        self._restart()
        return result


def choice_cdf(p) -> list[float]:
    """The cdf numpy's ``choice`` searches (right-sided) for probabilities ``p``."""
    cdf = np.cumsum(p, dtype=float)
    cdf /= cdf[-1]
    return cdf.tolist()


class _StaticInstr:
    """One static instruction slot: fixed op, fixed operand pools."""

    __slots__ = ("static_id", "spec", "pool_a", "pool_b")

    def __init__(self, static_id: int, spec: InstrSpec, pool_a: list[int], pool_b: list[int]):
        self.static_id = static_id
        self.spec = spec
        self.pool_a = pool_a
        self.pool_b = pool_b


def _random_value(draw: DrawReplay, width: int, p_large: float) -> int:
    """One operand value following the benchmark's width profile."""
    if draw.random() < 0.2:
        constant = _COMMON_CONSTANTS[draw.integers(len(_COMMON_CONSTANTS))]
        return constant & ((1 << width) - 1)
    half = width // 2
    if draw.random() < p_large:
        return draw.integers(1 << half, 1 << width)
    return draw.integers(0, 1 << half)


def _operand_b_pool(
    draw: DrawReplay, spec: InstrSpec, width: int, p_large: float, pool_size: int
) -> list[int]:
    """The operand-b value pool for a static slot, honouring b's role."""
    if spec.instr is Instr.LUI:
        # LUI's shift amount is the half-word width, a constant.
        return [width // 2]
    if spec.shift and spec.instr in (Instr.SLL, Instr.SRL, Instr.SRA):
        # Fixed-shift forms encode a constant 5-bit shamt per static
        # instruction.
        return [draw.integers(0, width)]
    if spec.shift:
        # Variable shifts read a register; small values dominate.
        return [draw.integers(0, width) for _ in range(pool_size)]
    if spec.immediate:
        # 16-bit immediates are always in the lower half-word.
        return [draw.integers(0, 1 << (width // 2)) for _ in range(pool_size)]
    return [_random_value(draw, width, p_large) for _ in range(pool_size)]


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
    draw = DrawReplay(np.random.default_rng(config.seed if seed is None else seed))

    instr_names = list(config.instr_mix)
    weights = np.array([config.instr_mix[i] for i in instr_names], dtype=float)
    instr_cdf = choice_cdf(weights / weights.sum())

    # --- build the static program ---------------------------------------
    blocks: list[list[_StaticInstr]] = []
    slots: list[_StaticInstr] = []
    for _ in range(config.num_blocks):
        block: list[_StaticInstr] = []
        for _ in range(draw.integers(config.block_size_min, config.block_size_max + 1)):
            spec = INSTRUCTIONS[instr_names[draw.choice(instr_cdf)]]
            pool_a = [
                _random_value(draw, width, config.p_large)
                for _ in range(config.value_pool_size)
            ]
            pool_b = _operand_b_pool(
                draw, spec, width, config.p_large, config.value_pool_size
            )
            block.append(_StaticInstr(len(slots), spec, pool_a, pool_b))
            slots.append(block[-1])
        blocks.append(block)
    block_cdf = choice_cdf(
        draw.call(draw.generator.dirichlet, np.ones(len(blocks)) * 2.0)
    )

    # --- execute ----------------------------------------------------------
    locality = config.value_locality
    p_large = config.p_large
    p_repeat = 1.0 / max(config.block_repeat_mean, 1.0)
    immediate_span = 1 << (width // 2)
    # 4- and 8-byte C arrays, not lists: a list of ints would hold an
    # object per value until the end, more than the trace itself
    static_ids = array("i")
    a_values = array("Q")
    b_values = array("Q")
    while len(static_ids) < num_cycles:
        block = blocks[draw.choice(block_cdf)]
        repeats = 1 + int(draw.call(draw.generator.geometric, p_repeat))
        run = min(repeats * len(block), num_cycles - len(static_ids))
        for slot in islice(cycle(block), run):
            spec = slot.spec
            if draw.random() < locality:
                a = slot.pool_a[draw.integers(len(slot.pool_a))]
            else:
                a = _random_value(draw, width, p_large)
            if draw.random() < locality or spec.instr is Instr.LUI:
                b = slot.pool_b[draw.integers(len(slot.pool_b))]
            elif spec.shift:
                b = draw.integers(0, width)
            elif spec.immediate:
                b = draw.integers(0, immediate_span)
            else:
                b = _random_value(draw, width, p_large)
            static_ids.append(slot.static_id)
            a_values.append(a)
            b_values.append(b)

    ids = np.array(static_ids, dtype=np.int32)
    return InstructionTrace(
        name=config.name,
        width=width,
        instrs=np.array([int(s.spec.instr) for s in slots], dtype=np.int16)[ids],
        static_ids=ids,
        alu_ops=np.array([int(s.spec.alu_op) for s in slots], dtype=np.int16)[ids],
        a_values=np.frombuffer(a_values, dtype=np.uint64),
        b_values=np.frombuffer(b_values, dtype=np.uint64),
        num_static=len(slots),
    )


def _mix(**weights: float) -> dict[Instr, float]:
    return {Instr[name]: weight for name, weight in weights.items()}


#: The six SPEC CPU2000 benchmarks the paper evaluates, as synthetic
#: profiles.  Key differentiation (calibrated to the paper's commentary):
#: mcf has the smallest static footprint and the strongest locality (few
#: unique error instances), vortex the largest and weakest (many unique
#: instances); gzip errs less often than mcf overall but across more
#: unique instances.
BENCHMARKS: dict[str, BenchmarkConfig] = {
    config.name: config
    for config in (
        BenchmarkConfig(
            name="bzip",
            instr_mix=_mix(
                ADDU=12, ADDIU=14, AND=8, ANDI=8, OR=10, XOR=8, SRL=10,
                SLL=10, SUBU=6, ORI=4, LUI=4, SRA=3, MFLO=3,
            ),
            num_blocks=40, block_size_min=4, block_size_max=10,
            block_repeat_mean=18.0, value_pool_size=4, value_locality=0.90,
            p_large=0.50, seed=101,
        ),
        BenchmarkConfig(
            name="gap",
            instr_mix=_mix(
                ADDU=20, ADDIU=18, SUBU=10, AND=5, OR=6, XOR=5, SLL=8,
                SRL=5, LUI=6, MFLO=6, SLLV=4, ORI=4, NOR=3,
            ),
            num_blocks=60, block_size_min=3, block_size_max=9,
            block_repeat_mean=12.0, value_pool_size=6, value_locality=0.85,
            p_large=0.60, seed=102,
        ),
        BenchmarkConfig(
            name="gzip",
            instr_mix=_mix(
                SRL=14, SLL=14, AND=10, ANDI=10, OR=10, ADDIU=12, ADDU=8,
                XOR=6, SUBU=4, LUI=4, SRA=4, ORI=4,
            ),
            num_blocks=30, block_size_min=3, block_size_max=8,
            block_repeat_mean=28.0, value_pool_size=3, value_locality=0.95,
            p_large=0.45, seed=103,
        ),
        BenchmarkConfig(
            name="mcf",
            instr_mix=_mix(
                ADDIU=26, ADDU=22, LUI=10, AND=6, OR=8, SLL=10, SUBU=8,
                ANDI=6, MFLO=4,
            ),
            num_blocks=12, block_size_min=3, block_size_max=6,
            block_repeat_mean=40.0, value_pool_size=3, value_locality=0.97,
            p_large=0.62, seed=104,
        ),
        BenchmarkConfig(
            name="parser",
            instr_mix=_mix(
                ADDU=12, ADDIU=14, AND=8, ANDI=6, OR=8, ORI=5, XOR=6,
                SLL=8, SRL=6, SRA=4, SUBU=8, LUI=5, NOR=3, SLLV=3,
                SRAV=2, MFLO=2,
            ),
            num_blocks=80, block_size_min=3, block_size_max=10,
            block_repeat_mean=8.0, value_pool_size=5, value_locality=0.80,
            p_large=0.50, seed=105,
        ),
        BenchmarkConfig(
            name="vortex",
            instr_mix=_mix(
                ADDIU=14, ADDU=10, SLL=10, ANDI=8, SRL=7, LUI=8, OR=9,
                NOR=6, SRAV=4, XOR=6, AND=6, SUBU=5, ORI=4, SLLV=3,
                MFLO=2, SRA=2,
            ),
            num_blocks=160, block_size_min=4, block_size_max=12,
            block_repeat_mean=5.0, value_pool_size=6, value_locality=0.75,
            p_large=0.55, seed=106,
        ),
    )
}

#: Benchmark evaluation order used throughout the paper's figures.
BENCHMARK_ORDER: tuple[str, ...] = ("bzip", "gap", "gzip", "mcf", "parser", "vortex")
