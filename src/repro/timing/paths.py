"""Path objects and trace-back through static or dynamic arrivals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gates.celllib import GateKind
from repro.gates.netlist import Netlist

_TOLERANCE = 1e-4


@dataclass(frozen=True)
class Path:
    """A source-to-endpoint path through the netlist.

    ``nodes`` is ordered source-first; ``delay`` is the accumulated
    propagation delay along the path.
    """

    nodes: tuple[int, ...]
    delay: float

    def __len__(self) -> int:
        return len(self.nodes)

    def gate_kinds(self, netlist: Netlist) -> tuple[GateKind, ...]:
        return tuple(netlist.kind(node_id) for node_id in self.nodes)

    def gate_count(self, netlist: Netlist) -> int:
        """Number of combinational gates on the path (sources excluded)."""
        return sum(
            1 for node_id in self.nodes if netlist.fanins(node_id)
        )


def _trace_back(
    netlist: Netlist,
    arrivals: np.ndarray,
    delays: np.ndarray,
    endpoint: int,
    candidates=None,
) -> Path:
    """Walk from ``endpoint`` to a source following arrival equalities."""
    nodes = [endpoint]
    node = endpoint
    while True:
        fanins = netlist.fanins(node)
        if not fanins:
            break
        target = arrivals[node] - delays[node]
        best = None
        best_gap = None
        for fanin in fanins:
            if candidates is not None and not candidates[fanin]:
                continue
            gap = abs(float(arrivals[fanin]) - float(target))
            if best_gap is None or gap < best_gap:
                best, best_gap = fanin, gap
        if best is None or (best_gap is not None and best_gap > _TOLERANCE * max(1.0, abs(target))):
            # Numerical slack; accept the closest fanin anyway if one exists.
            if best is None:
                break
        node = best
        nodes.append(node)
    nodes.reverse()
    return Path(nodes=tuple(nodes), delay=float(arrivals[endpoint]))


def trace_critical_path(netlist: Netlist, delays: np.ndarray) -> Path:
    """The static longest path to the worst primary output."""
    from repro.timing.sta import arrival_times

    arrivals = arrival_times(netlist, delays, "max")
    endpoint = max(netlist.output_ids, key=lambda node_id: arrivals[node_id])
    return _trace_back(netlist, arrivals, delays, endpoint)


def trace_dynamic_path(
    netlist: Netlist,
    late_arrivals: np.ndarray,
    delays: np.ndarray,
    endpoint: int,
    toggled: np.ndarray,
) -> Path:
    """The sensitised path realising a dynamic late arrival at ``endpoint``.

    ``late_arrivals``/``toggled`` are one column of
    :func:`repro.timing.dta.pair_arrivals`.
    """
    if not toggled[endpoint]:
        raise ValueError(f"endpoint {endpoint} did not toggle")
    return _trace_back(netlist, late_arrivals, delays, endpoint, candidates=toggled)
