"""Per-cycle timing-error traces: the input every EDAC scheme replays.

The paper's circuit layer produces a "cyclewise sensitised path delay
report" which the "timing error simulation for diverse schemes" then
consumes (§3.4.3).  :func:`build_error_trace` is that hand-off: it runs
the dynamic timing analysis of an instruction trace on one fabricated
chip and packages everything a scheme needs per cycle -- instruction
pair, OWM bits, operand size classes, raw arrival times, and the
classified error.

Alignment convention: entry ``j`` of an :class:`ErrorTrace` describes
*errant cycle* ``j+1`` of the instruction trace -- the sensitising
instruction is ``instrs[j+1]``, the initialising instruction is
``instrs[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.arch.operands import operand_size_class, owm_flag
from repro.obs import audit
from repro.arch.trace import InstructionTrace
from repro.circuits.ex_stage import ExStage
from repro.pv.chip import ChipSample, delay_matrix
from repro.timing.dta import ERR_CE, ERR_NONE, ERR_SE_MAX, ERR_SE_MIN


@dataclass
class ErrorTrace:
    """Cycle-wise timing outcome of one (benchmark, chip) run."""

    benchmark: str
    corner: str
    corner_vdd: float  # supply voltage of the corner, volts
    clock_period: float  # ps
    hold_constraint: float  # ps
    instr_sens: np.ndarray  # sensitising instruction opcode per entry
    instr_init: np.ndarray  # initialising instruction opcode per entry
    owm_sens: np.ndarray  # OWM of the sensitising instruction
    owm_init: np.ndarray
    size_a: np.ndarray  # operand size classes of the sensitising instr
    size_b: np.ndarray
    static_ids: np.ndarray  # static-instruction id of the sensitising instr
    t_late: np.ndarray
    t_early: np.ndarray
    err_class: np.ndarray  # ERR_NONE / ERR_SE_MIN / ERR_SE_MAX / ERR_CE

    def __len__(self) -> int:
        return len(self.err_class)

    @property
    def max_err(self) -> np.ndarray:
        """Cycles with a maximum (setup) timing violation."""
        return (self.err_class == ERR_SE_MAX) | (self.err_class == ERR_CE)

    @property
    def min_err(self) -> np.ndarray:
        """Cycles with a minimum (hold) timing violation."""
        return (self.err_class == ERR_SE_MIN) | (self.err_class == ERR_CE)

    @property
    def any_err(self) -> np.ndarray:
        return self.err_class != ERR_NONE

    def error_counts(self) -> dict[str, int]:
        """Histogram of error classes over the trace."""
        return {
            "none": int((self.err_class == ERR_NONE).sum()),
            "se_min": int((self.err_class == ERR_SE_MIN).sum()),
            "se_max": int((self.err_class == ERR_SE_MAX).sum()),
            "ce": int((self.err_class == ERR_CE).sum()),
        }


def _assemble_trace(
    stage: ExStage,
    trace: InstructionTrace,
    timings,
    owm: np.ndarray,
    size_a: np.ndarray,
    size_b: np.ndarray,
) -> ErrorTrace:
    """Classify one chip's timings and package the scheme-facing trace.

    Shared by the scalar and batch builders so both emit identical
    telemetry and identical :class:`ErrorTrace` payloads.
    """
    err_class = timings.classify(stage.clock_period, stage.hold_constraint)

    if obs.enabled():
        obs.inc("etrace.built", benchmark=trace.name, corner=stage.corner.name)
        obs.inc("etrace.cycles", len(err_class))
        for kind, count in (
            ("se_min", int((err_class == ERR_SE_MIN).sum())),
            ("se_max", int((err_class == ERR_SE_MAX).sum())),
            ("ce", int((err_class == ERR_CE).sum())),
        ):
            obs.inc("etrace.errors", count, kind=kind)
        # OWM-triggered cycles at the EX stage: the operand-width
        # mismatch signal DCS/Trident key their tags on.
        obs.inc("choke.owm", int(owm[1:].sum()), stage="EX")

    sink = audit.get()
    if sink is not None:
        # Provenance for the raw DTA classification: one DEC_NONE record
        # per errant cycle, before any scheme acts on it.
        rec = sink.begin_run(
            kind="etrace",
            scheme="",
            benchmark=trace.name,
            corner=stage.corner.name,
            base_cycles=len(err_class),
            clock_period=stage.clock_period,
            hold_constraint=stage.hold_constraint,
            t_late=timings.t_late,
            t_early=timings.t_early,
        )
        cycles = np.flatnonzero(err_class)
        rec.decisions(cycles, err_class[cycles], audit.DEC_NONE)
        rec.finish()

    return ErrorTrace(
        benchmark=trace.name,
        corner=stage.corner.name,
        corner_vdd=stage.corner.vdd,
        clock_period=stage.clock_period,
        hold_constraint=stage.hold_constraint,
        instr_sens=trace.instrs[1:].copy(),
        instr_init=trace.instrs[:-1].copy(),
        owm_sens=owm[1:].copy(),
        owm_init=owm[:-1].copy(),
        size_a=size_a[1:].copy(),
        size_b=size_b[1:].copy(),
        static_ids=trace.static_ids[1:].copy(),
        t_late=timings.t_late,
        t_early=timings.t_early,
        err_class=err_class,
    )


def build_error_trace(
    stage: ExStage,
    chip: ChipSample,
    trace: InstructionTrace,
    chunk: int = 2048,
    inputs: np.ndarray | None = None,
) -> ErrorTrace:
    """Run DTA of ``trace`` on ``chip`` and classify every cycle.

    ``inputs`` optionally supplies the pre-encoded primary-input matrix
    (it must equal ``trace.encode_inputs(stage.alu)`` — e.g. a
    shared-memory view published by the fleet parent); encoding is
    deterministic, so supplying it never changes results.
    """
    if trace.width != stage.width:
        raise ValueError(
            f"trace width {trace.width} does not match stage width {stage.width}"
        )
    if inputs is None:
        inputs = trace.encode_inputs(stage.alu)
    timings = stage.timings(chip, inputs, chunk=chunk)

    owm = owm_flag(trace.a_values, trace.b_values, trace.width)
    size_a = operand_size_class(trace.a_values, trace.width)
    size_b = operand_size_class(trace.b_values, trace.width)

    return _assemble_trace(stage, trace, timings, owm, size_a, size_b)


def build_error_traces_batch(
    stage: ExStage,
    chips: "list[ChipSample] | tuple[ChipSample, ...]",
    trace: InstructionTrace,
    chunk: int = 2048,
    inputs: np.ndarray | None = None,
) -> list[ErrorTrace]:
    """Run DTA of ``trace`` on a whole chip population in one kernel call.

    One :func:`~repro.timing.dta.batch_cycle_timings` call times every
    chip; trace encoding, logic evaluation, and OWM/operand-size
    classification are computed once and shared.  Entry ``i`` is
    bit-identical to ``build_error_trace(stage, chips[i], trace, chunk)``
    (the batch kernel's per-chip rows are bit-identical to the scalar
    path, and everything else here is delay-independent).
    """
    if not chips:
        raise ValueError("need at least one chip")
    if trace.width != stage.width:
        raise ValueError(
            f"trace width {trace.width} does not match stage width {stage.width}"
        )
    if inputs is None:
        inputs = trace.encode_inputs(stage.alu)
    batch = stage.batch_timings(delay_matrix(chips), inputs, chunk=chunk)

    owm = owm_flag(trace.a_values, trace.b_values, trace.width)
    size_a = operand_size_class(trace.a_values, trace.width)
    size_b = operand_size_class(trace.b_values, trace.width)

    return [
        _assemble_trace(stage, trace, batch.chip(i), owm, size_a, size_b)
        for i in range(len(chips))
    ]
