"""The EX pipestage: timed ALU cloud, clocking, and hold-buffer insertion.

This module plays the role of the paper's synthesised, placed EX stage:

* it derives the clock period from the PV-free critical path plus a small
  margin (timing-speculative NTC operation -- choke paths are expected to
  overshoot it on bad chips),
* it derives the minimum-path (hold) constraint as a fraction of the
  clock period, the way Razor-style double-sampling schemes require, and
* in the ``buffered`` variant it plans and inserts hold-fix delay buffers
  on the short branches into the result mux ("buffer insertion", Razor's
  standard defence against minimum timing violations) -- the very buffers
  that Chapter 4 shows can become *choke buffers* at NTC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.gates.celllib import CELL_LIBRARY, GateKind
from repro.gates.netlist import Netlist
from repro.pv.chip import ChipSample, fabricate_chip
from repro.pv.delaymodel import Corner, NTC, nominal_delay_factor, nominal_gate_delays
from repro.pv.varius import DEFAULT_PARAMS, VariusParams
from repro.timing.dta import (
    DEFAULT_CHUNK, BatchCycleTimings, CycleTimings, batch_cycle_timings, cycle_timings,
)
from repro.timing.levelize import LevelizedCircuit, levelize
from repro.timing.sta import arrival_times

from repro.circuits.alu import Alu, AluOp, build_alu


@dataclass
class ExStage:
    """A fully-planned EX pipestage at one operating corner."""

    alu: Alu
    corner: Corner
    clock_period: float  # ps
    hold_constraint: float  # ps
    buffered: bool
    nominal_delays: np.ndarray
    nominal_critical_delay: float
    nominal_min_delay: float
    circuit: LevelizedCircuit

    @property
    def netlist(self) -> Netlist:
        return self.alu.netlist

    @property
    def width(self) -> int:
        return self.alu.width

    @property
    def num_pad_cells(self) -> int:
        """Hold-fix delay buffers inserted by the buffered variant."""
        return len(self.alu.pad_gate_ids)

    def encode_batch(
        self, ops: np.ndarray, a_values: np.ndarray, b_values: np.ndarray
    ) -> np.ndarray:
        return self.alu.encode_batch(ops, a_values, b_values)

    def fabricate(
        self,
        seed: int,
        params: VariusParams = DEFAULT_PARAMS,
        affected_fraction: float = 0.02,
        **kwargs,
    ) -> ChipSample:
        """Fabricate one chip instance of this stage's netlist."""
        return fabricate_chip(
            self.netlist,
            self.corner,
            seed,
            params=params,
            affected_fraction=affected_fraction,
            **kwargs,
        )

    def timings(
        self, chip: ChipSample, inputs: np.ndarray, chunk: int = DEFAULT_CHUNK
    ) -> CycleTimings:
        """Per-cycle dynamic timing of an input-vector stream on ``chip``."""
        return cycle_timings(self.circuit, inputs, chip.delays, chunk=chunk)

    def batch_timings(
        self, delay_matrix: np.ndarray, inputs: np.ndarray, chunk: int = DEFAULT_CHUNK
    ) -> BatchCycleTimings:
        """Population-level timing: one kernel call for all chips.

        ``delay_matrix`` is ``(num_chips, num_nodes)`` -- a
        :class:`~repro.pv.montecarlo.ChipPopulation`'s ``delays`` or
        :func:`repro.pv.chip.delay_matrix` over a chip list.
        """
        return batch_cycle_timings(self.circuit, inputs, delay_matrix, chunk=chunk)


def _leaf_depths(num_leaves: int) -> np.ndarray:
    """OR-level count each leaf of the pairwise reduction tree passes."""
    depths = np.zeros(num_leaves, dtype=np.int64)
    groups: list[list[int]] = [[i] for i in range(num_leaves)]
    while len(groups) > 1:
        nxt: list[list[int]] = []
        for i in range(0, len(groups) - 1, 2):
            merged = groups[i] + groups[i + 1]
            for leaf in merged:
                depths[leaf] += 1
            nxt.append(merged)
        if len(groups) % 2:
            nxt.append(groups[-1])
        groups = nxt
    return depths


def build_ex_stage(
    width: int = 32,
    corner: Corner = NTC,
    buffered: bool = True,
    clock_margin: float = 0.18,
    hold_fraction: float = 0.12,
    hold_margin: float = 1.4,
    max_headroom: float = 0.97,
    use_lookahead_adder: bool = False,
    levelizer: Callable[[Netlist, Sequence[int]], LevelizedCircuit] = levelize,
) -> ExStage:
    """Plan and build an EX pipestage.

    * ``clock_margin``: guardband over the PV-free critical path.
    * ``hold_fraction``: hold constraint as a fraction of the clock period
      (the double-sampling speculation window).
    * ``hold_margin``: hold-fix padding overshoot (pads target
      ``hold_margin x`` the constraint, as real hold fixing does).
    * ``max_headroom``: padded branches may not push any max path beyond
      this fraction of the clock period.
    * ``levelizer(netlist, controls)`` builds the stage's levelised
      circuit, keyed on the ALU's select rows; a caller holding several
      stages passes a memoised one to share equal netlists' circuits.
    """
    if not 0 < hold_fraction < 1:
        raise ValueError("hold_fraction must be in (0, 1)")
    if hold_margin < 1.0:
        raise ValueError("hold_margin must be >= 1.0")

    probe = build_alu(width, use_lookahead_adder=use_lookahead_adder)
    probe_delays = nominal_gate_delays(probe.netlist, corner)
    arr_max = arrival_times(probe.netlist, probe_delays, "max")
    arr_min = arrival_times(probe.netlist, probe_delays, "min")
    critical = max(float(arr_max[bit]) for bit in probe.output_bits)

    clock_period = critical * (1.0 + clock_margin)
    hold_constraint = hold_fraction * clock_period

    branch_pads: dict[tuple[AluOp, int], int] = {}
    sel_pads: dict[AluOp, int] = {}
    if buffered:
        factor = nominal_delay_factor(corner)
        and_delay = CELL_LIBRARY[GateKind.AND2].delay_coeff * factor
        or_delay = CELL_LIBRARY[GateKind.OR2].delay_coeff * factor
        dbuf_delay = CELL_LIBRARY[GateKind.DBUF].delay_coeff * factor
        min_tree_delay = int(_leaf_depths(len(probe.ops)).min()) * or_delay
        mux_overhead = and_delay + min_tree_delay
        branch_target = hold_constraint * hold_margin - mux_overhead
        max_branch_arrival = max_headroom * clock_period - mux_overhead

        for op in probe.ops:
            need = branch_target  # select lines arrive at t = 0
            if need > 0:
                sel_pads[op] = math.ceil(need / dbuf_delay)
            for bit_index, unit_bit in enumerate(probe.unit_output_bits[op]):
                early = float(arr_min[unit_bit])
                late = float(arr_max[unit_bit])
                need = branch_target - early
                if need <= 0:
                    continue
                wanted = math.ceil(need / dbuf_delay)
                allowed = math.floor((max_branch_arrival - late) / dbuf_delay)
                pads = min(wanted, max(allowed, 0))
                if pads > 0:
                    branch_pads[(op, bit_index)] = pads

    if branch_pads or sel_pads:
        alu = build_alu(
            width,
            use_lookahead_adder=use_lookahead_adder,
            branch_pads=branch_pads,
            sel_pads=sel_pads,
        )
        nominal = nominal_gate_delays(alu.netlist, corner)
        arr_max2 = arrival_times(alu.netlist, nominal, "max")
        arr_min2 = arrival_times(alu.netlist, nominal, "min")
    else:
        # Nothing padded: the probe is the final netlist.
        alu, nominal, arr_max2, arr_min2 = probe, probe_delays, arr_max, arr_min
    critical2 = max(float(arr_max2[bit]) for bit in alu.output_bits)
    min_delay = min(float(arr_min2[bit]) for bit in alu.output_bits)

    if buffered and min_delay < hold_constraint:
        # A branch could not be padded fully within the clock headroom
        # (typically a short path sharing its mux branch with the critical
        # path).  A real speculative design shrinks its detection window
        # to the achievable short-path constraint; do the same.
        hold_constraint = min_delay / hold_margin

    return ExStage(
        alu=alu,
        corner=corner,
        clock_period=clock_period,
        hold_constraint=hold_constraint,
        buffered=buffered,
        nominal_delays=nominal,
        nominal_critical_delay=critical2,
        nominal_min_delay=min_delay,
        circuit=levelizer(alu.netlist, alu.select_rows),
    )
