"""Choke-point analytics: CDL, CGL, choke paths, choke buffers.

Definitions (Section 3.2.1 of the paper):

* A *choke point* is a single gate or small group of PV-affected gates
  that dominates the delay of the (sensitised) path containing it, able to
  turn a nominally short path into the post-silicon critical path.
* *Choke Delay Level* (CDL): the additional delay the choke path carries
  beyond the nominal critical path delay, as a percentage of the latter.
* *Choke Gate Level* (CGL): the number of gates forming the choke point,
  as a percentage of the total gate count of the circuit.

The paper bins CDL into four categories: Low (0-5%], Medium-Low (5-10%],
Medium-High (10-20%] and High (>20%).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.pv.chip import ChipSample
from repro.timing.dta import pair_arrivals
from repro.timing.levelize import LevelizedCircuit
from repro.timing.paths import Path, trace_dynamic_path

#: CDL category labels, in increasing severity.
CDL_CATEGORIES: tuple[str, ...] = ("CDL_L", "CDL_ML", "CDL_MH", "CDL_H")


def classify_cdl(cdl_percent: float) -> str | None:
    """Bin a CDL percentage into the paper's four categories.

    Returns ``None`` for non-positive CDL (the sensitised path did not
    exceed the nominal critical path, so no choke path was created).
    """
    if cdl_percent <= 0.0:
        return None
    if cdl_percent <= 5.0:
        return "CDL_L"
    if cdl_percent <= 10.0:
        return "CDL_ML"
    if cdl_percent <= 20.0:
        return "CDL_MH"
    return "CDL_H"


@dataclass(frozen=True)
class ChokeEvent:
    """One sensitised choke-path occurrence on a fabricated chip."""

    cdl_percent: float
    cgl_percent: float
    category: str
    path: Path
    choke_gate_ids: tuple[int, ...]

    @property
    def num_choke_gates(self) -> int:
        return len(self.choke_gate_ids)

    def resolve_gates(self, netlist) -> tuple[str, ...]:
        """Human-readable labels for the choke gates: ``name[KIND]@L<n>``.

        ``netlist`` is the :class:`~repro.gates.netlist.Netlist` the event
        was analysed on (``circuit.netlist``); unnamed nodes fall back to
        the ``n<id>`` convention of :meth:`Netlist.name_of`.  Used by the
        ``audit why`` CLI so blame lines print gate identities instead of
        raw node indices.
        """
        levels = netlist.levels()
        return tuple(
            f"{netlist.name_of(node_id)}[{netlist.kind(node_id).name}]"
            f"@L{int(levels[node_id])}"
            for node_id in self.choke_gate_ids
        )

    def blame_line(self, netlist) -> str:
        """One-line provenance summary: category, CDL, and gate labels."""
        gates = ", ".join(self.resolve_gates(netlist))
        return (
            f"{self.category} (+{self.cdl_percent:.1f}% over nominal, "
            f"{self.num_choke_gates} gate(s)): {gates}"
        )


def choke_gates_on_path(
    path: Path, chip: ChipSample, ratio_threshold: float = 1.5
) -> tuple[int, ...]:
    """Gates on ``path`` whose fabricated delay exceeds nominal notably.

    These are the gates "forming the choke point" for CGL purposes.
    """
    ratios = chip.delay_ratio()
    return tuple(
        node_id
        for node_id in path.nodes
        if chip.nominal_delays[node_id] > 0 and ratios[node_id] >= ratio_threshold
    )


def fast_gates_on_path(
    path: Path, chip: ChipSample, ratio_threshold: float = 1.5
) -> tuple[int, ...]:
    """Gates on ``path`` significantly *faster* than nominal (choke buffers
    and their kin), i.e. ratio <= 1/ratio_threshold."""
    ratios = chip.delay_ratio()
    return tuple(
        node_id
        for node_id in path.nodes
        if chip.nominal_delays[node_id] > 0 and ratios[node_id] <= 1.0 / ratio_threshold
    )


def analyze_choke_event(
    circuit: LevelizedCircuit,
    chip: ChipSample,
    vector_prev: np.ndarray,
    vector_curr: np.ndarray,
    nominal_critical_delay: float,
    ratio_threshold: float = 1.5,
) -> ChokeEvent | None | list[ChokeEvent | None]:
    """Analyse vector pairs for choke events on ``chip``.

    Runs node-resolved dynamic timing for each transition, and where the
    sensitised critical delay exceeds the PV-free critical path delay,
    traces the sensitised path and measures CDL/CGL.

    With 1-D vectors this analyses one pair and returns its
    :class:`ChokeEvent`, or ``None`` when no choke path was created.
    With ``(num_inputs, K)`` matrices every column is one pair: all K
    are timed in a single :func:`~repro.timing.dta.pair_arrivals`
    propagation and the result is a list of K ``ChokeEvent | None``.
    """
    if nominal_critical_delay <= 0:
        raise ValueError("nominal_critical_delay must be positive")
    prev = np.asarray(vector_prev, dtype=bool)
    curr = np.asarray(vector_curr, dtype=bool)
    single = prev.ndim == 1
    if single:
        prev, curr = prev[:, None], curr[:, None]
    late, _early, toggled = pair_arrivals(circuit, prev, curr, chip.delays)
    num_gates = max(circuit.netlist.num_gates, 1)
    events = [
        _choke_event(
            circuit,
            chip,
            late[:, column],
            toggled[:, column],
            nominal_critical_delay,
            ratio_threshold,
            num_gates,
        )
        for column in range(late.shape[1])
    ]
    return events[0] if single else events


def _choke_event(
    circuit: LevelizedCircuit,
    chip: ChipSample,
    late: np.ndarray,
    toggled: np.ndarray,
    nominal_critical_delay: float,
    ratio_threshold: float,
    num_gates: int,
) -> ChokeEvent | None:
    """Trace back one pair's node-resolved arrivals into a choke event."""
    out_ids = circuit.output_ids
    out_late = late[out_ids]
    if not np.isfinite(out_late).any():
        return None
    worst_pos = int(np.nanargmax(np.where(np.isfinite(out_late), out_late, -np.inf)))
    worst_output = int(out_ids[worst_pos])
    worst_delay = float(out_late[worst_pos])

    cdl = (worst_delay - nominal_critical_delay) / nominal_critical_delay * 100.0
    category = classify_cdl(cdl)
    if category is None:
        return None

    path = trace_dynamic_path(circuit.netlist, late, chip.delays, worst_output, toggled)
    choke_ids = choke_gates_on_path(path, chip, ratio_threshold)
    if not choke_ids:
        # The excess delay is not attributable to PV-affected gates (e.g.
        # accumulated mild variation); the paper's choke definition
        # requires a dominating affected gate group.
        return None
    cgl = len(choke_ids) / num_gates * 100.0
    if obs.enabled():
        # Per-chip choke histogram: CDL/CGL samples labelled by the
        # chip's fabrication seed, plus a category counter per the
        # paper's four CDL bins.
        obs.inc("choke.events", category=category)
        obs.inc("choke.cdl", category=category, chip=chip.seed)
        obs.observe("choke.cdl_percent", cdl, chip=chip.seed)
        obs.observe("choke.cgl_percent", cgl, chip=chip.seed)
    return ChokeEvent(
        cdl_percent=cdl,
        cgl_percent=cgl,
        category=category,
        path=path,
        choke_gate_ids=choke_ids,
    )
