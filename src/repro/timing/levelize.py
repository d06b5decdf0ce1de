"""Levelised circuit form for the vectorised logic/timing engines.

Each logic level becomes one :class:`LevelStep`: the level's gates,
sorted by (arity, kind), with their fanin ids packed so that a kernel
handles the whole level with one gather per fanin slot.  Sorting by
arity makes every fanin slot a *suffix* of the level:

* ``in0`` covers all gates of the level;
* ``in1`` covers the gates from ``two`` on (the 2-input kinds, then
  MUX2);
* ``in2`` covers the gates from ``mux`` on (MUX2 only).

Sorting by kind inside each arity makes every kind one contiguous
``(kind, start, stop)`` segment, which is all logic evaluation needs
to pick its boolean op.  The steps are a pure reindexing of the
netlist -- they carry no per-chip data, which is what lets one
levelised circuit drive the timing of an entire Monte Carlo population.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.gates.celllib import GateKind, fanin_count
from repro.gates.netlist import Netlist

_ARITY = np.array([fanin_count(kind) for kind in GateKind], dtype=np.int8)


class LevelStep(NamedTuple):
    """All gates of one logic level, sorted by (arity, kind, node id)."""

    nodes: np.ndarray  # node ids, int32
    in0: np.ndarray  # fanin 0 of every gate
    two: int  # index of the level's first gate with a second fanin
    in1: np.ndarray  # fanin 1 of gates two:
    mux: int  # index of the level's first MUX2
    in2: np.ndarray  # fanin 2 (MUX2 select) of gates mux:
    segments: tuple[tuple[GateKind, int, int], ...]  # (kind, start, stop)


@dataclass
class LevelizedCircuit:
    """A netlist reorganised into one packed gate step per logic level."""

    netlist: Netlist
    num_nodes: int
    input_ids: np.ndarray
    output_ids: np.ndarray
    const0_ids: np.ndarray
    const1_ids: np.ndarray
    levels: list[LevelStep]  # levels[0] is the first *gate* level
    node_levels: np.ndarray

    @property
    def depth(self) -> int:
        """Number of gate levels."""
        return len(self.levels)


def _level_step(nodes: np.ndarray, kinds: np.ndarray, fanins: np.ndarray) -> LevelStep:
    """Pack one level's gates, already sorted by (arity, kind, id)."""
    level_kinds = kinds[nodes]
    arity = _ARITY[level_kinds]
    two = int(np.searchsorted(arity, 2))
    mux = int(np.searchsorted(arity, 3))
    starts = np.flatnonzero(np.diff(level_kinds, prepend=-1))
    stops = np.append(starts[1:], len(nodes))
    return LevelStep(
        nodes=nodes,
        in0=fanins[nodes, 0],
        two=two,
        in1=fanins[nodes[two:], 1],
        mux=mux,
        in2=fanins[nodes[mux:], 2],
        segments=tuple(
            (GateKind(int(level_kinds[start])), int(start), int(stop))
            for start, stop in zip(starts, stops)
        ),
    )


def levelize(netlist: Netlist) -> LevelizedCircuit:
    """Build the levelised form of ``netlist``."""
    num_nodes = netlist.num_nodes
    node_levels = netlist.levels()
    kinds = np.array([netlist.kind(i) for i in range(num_nodes)], dtype=np.int8)
    fanins = np.full((num_nodes, 3), -1, dtype=np.int32)
    for node_id, _kind, node_fanins in netlist.iter_nodes():
        fanins[node_id, : len(node_fanins)] = node_fanins

    # Level-major, then arity, then kind; node id breaks ties.
    order = np.lexsort((np.arange(num_nodes), kinds, _ARITY[kinds], node_levels))
    order = order.astype(np.int32)
    depth = int(node_levels.max(initial=0))
    bounds = np.searchsorted(node_levels[order], np.arange(1, depth + 2))
    levels = [
        _level_step(order[lo:hi], kinds, fanins) for lo, hi in zip(bounds[:-1], bounds[1:])
    ]

    return LevelizedCircuit(
        netlist=netlist,
        num_nodes=num_nodes,
        input_ids=np.array(netlist.input_ids, dtype=np.int32),
        output_ids=np.array(netlist.output_ids, dtype=np.int32),
        const0_ids=np.flatnonzero(kinds == GateKind.CONST0).astype(np.int32),
        const1_ids=np.flatnonzero(kinds == GateKind.CONST1).astype(np.int32),
        levels=levels,
        node_levels=node_levels,
    )
