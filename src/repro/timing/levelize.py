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

Control inputs and restricted circuits
--------------------------------------

``levelize(netlist, controls=...)`` records the input rows (positions
in ``input_ids``, i.e. rows of an encoded input matrix) that act as
*controls*: inputs such as the ALU's one-hot operation selects, which
hold still across many transitions and gate whole regions of the
circuit.  :meth:`LevelizedCircuit.restrict` takes the controls known
to be constant over a set of vector pairs (``known0`` / ``known1``,
boolean masks over ``controls``) and derives, from the netlist's gate
semantics alone, the circuit that times those pairs exactly:

* a 0/1/X forward pass from the constant controls (and the constant
  cells) finds the *stable* nodes, whose value is the same in every
  vector that matches the key -- e.g. every result-mux AND gate whose
  select is 0 -- so they never toggle;
* a backward closure from the outputs through the non-stable gates
  gives the *cone*: the only gates whose transitions can reach an
  output;
* the level steps are filtered to the cone and empty levels dropped;
  the rows are compacted to the cone, the stable nodes it reads (which
  become constant rows), the outputs and the inputs.

The compacted rows come in two blocks: first the non-gate rows (the
inputs and the constant rows, with any output among them) in netlist
order, then the cone gates in packing order -- level, arity, kind,
node id.  Every step of a restricted circuit then covers one
contiguous row range, and its ``rows`` is a slice: logic evaluation
and the DTA propagation read and write each level as a view.  A full
circuit keeps netlist row order (the pair-form DTA, the choke
analysis and the oracles index its rows by netlist id), so its steps
keep index arrays wherever their ids do not run consecutively.

:attr:`LevelizedCircuit.node_ids` maps each row of a restricted
circuit back to its netlist node (it is the identity on a full one;
on a restricted one it is increasing over the non-gate rows and
follows the packing order over the gates), so per-node data such as a
chip's delays is gathered through it.
Inputs keep their order and controls their rows, so
:func:`~repro.timing.logic_eval.evaluate_logic` and the DTA
propagation run on a restricted circuit unchanged.  On vectors that
match its key, every row evaluates as its netlist node does in the
full circuit.  Each key is derived once per circuit instance and
cached on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from repro.gates.celllib import GateKind, evaluate_gate, fanin_count
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
    rows: slice | np.ndarray  # ``nodes`` as a slice when they run consecutively


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
    kinds: np.ndarray  # GateKind per node, int8
    fanins: np.ndarray  # (num_nodes, 3) fanin ids, -1 where unused
    controls: np.ndarray  # input rows of the control inputs, int32
    node_ids: np.ndarray  # netlist node of each row (identity unless restricted)
    _restricted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def depth(self) -> int:
        """Number of gate levels."""
        return len(self.levels)

    @property
    def gate_count(self) -> int:
        """Gates the level steps evaluate (the cone, once restricted)."""
        return sum(len(step.nodes) for step in self.levels)

    def restrict(self, known0: np.ndarray, known1: np.ndarray) -> "LevelizedCircuit":
        """The circuit restricted to the controls held constant.

        ``known0`` / ``known1`` are boolean masks over :attr:`controls`:
        the controls that are 0 (1) in every vector to be timed.  The
        result is cached per key on this instance (see the module
        docstring for what it guarantees).
        """
        known0 = np.asarray(known0, dtype=bool)
        known1 = np.asarray(known1, dtype=bool)
        key = (known0.tobytes(), known1.tobytes())
        if key not in self._restricted:
            self._restricted[key] = self._derive_restricted(known0, known1)
        return self._restricted[key]

    def _derive_restricted(self, known0: np.ndarray, known1: np.ndarray) -> "LevelizedCircuit":
        values = self.constant_values(known0, known1)
        stable = values != _X
        # Backward closure: a live gate that is not stable makes its
        # non-stable fanins live.  Fanins sit on lower levels, so one
        # reverse sweep over the levels closes the cone.  The extra
        # last slot stands for an unused fanin (-1) and never goes live.
        blocked = np.append(stable, True)
        live = np.zeros(self.num_nodes + 1, dtype=bool)
        live[self.output_ids] = True
        live &= ~blocked
        for step in reversed(self.levels):
            gates = step.nodes[live[step.nodes]]
            if len(gates):
                fanin = self.fanins[gates].ravel()
                live[fanin[~blocked[fanin]]] = True
        # Rows of the restricted circuit: the cone, every node a cone
        # gate reads (the stable ones become constant rows), the
        # outputs and the inputs.  The non-gate rows come first in node
        # order, then the cone gates in packing order, so every level
        # step covers one contiguous row range.
        keep = live.copy()
        keep[self.fanins[live[:-1] & (self.kinds > GateKind.CONST1)]] = True
        keep = keep[:-1]
        keep[self.output_ids] = True
        keep[self.input_ids] = True
        gates = np.concatenate([step.nodes for step in self.levels])
        gates = gates[live[gates]]
        other = keep.copy()
        other[gates] = False
        rows = np.concatenate([np.flatnonzero(other), gates])
        remap = np.full(self.num_nodes + 1, -1, dtype=np.int32)  # [-1] stays -1
        remap[rows] = np.arange(len(rows), dtype=np.int32)
        levels = _pack_levels(
            remap[gates], self.node_levels[gates], self.kinds[gates], remap[self.fanins[gates]]
        )
        constant = keep & stable
        constant[self.input_ids] = False
        return LevelizedCircuit(
            netlist=self.netlist,
            num_nodes=len(rows),
            input_ids=remap[self.input_ids],
            output_ids=remap[self.output_ids],
            const0_ids=remap[np.flatnonzero(constant & (values == 0))],
            const1_ids=remap[np.flatnonzero(constant & (values == 1))],
            levels=levels,
            node_levels=self.node_levels[rows],
            kinds=self.kinds[rows],
            fanins=remap[self.fanins[rows]],
            controls=self.controls,
            node_ids=self.node_ids[rows],
        )

    def constant_values(self, known0: np.ndarray, known1: np.ndarray) -> np.ndarray:
        """0/1/X forward pass over the vectors whose controls match
        ``known0`` / ``known1``.

        Returns an int8 value per node: 0 or 1 where the node takes that
        value in every matching vector (a *stable* node, which never
        toggles between two of them), 2 (X) where it may take either.
        """
        # one extra X slot that unused fanins (-1) read
        values = np.full(self.num_nodes + 1, _X, dtype=np.int8)
        values[self.const0_ids] = 0
        values[self.const1_ids] = 1
        control_ids = self.input_ids[self.controls]
        values[control_ids[known0]] = 0
        values[control_ids[known1]] = 1
        for step in self.levels:
            fanin = self.fanins[step.nodes]
            code = values[fanin[:, 0]] * 9 + values[fanin[:, 1]] * 3 + values[fanin[:, 2]]
            values[step.nodes] = _TERNARY[self.kinds[step.nodes], code]
        return values[:-1]


#: the unknown value of the 0/1/X forward pass
_X = 2


def _ternary_table() -> np.ndarray:
    """Output of every gate kind on each 0/1/X fanin triple, indexed by
    ``[kind, 9 * v0 + 3 * v1 + v2]``: a value is known (0 or 1) when
    every 0/1 completion of the X fanins gives it, from the scalar gate
    semantics; fanin slots beyond a kind's arity are ignored."""
    table = np.full((len(GateKind), 27), _X, dtype=np.int8)
    for kind in GateKind:
        arity = fanin_count(kind)
        if not arity:
            continue
        for code in range(27):
            triple = (code // 9, code // 3 % 3, code % 3)[:arity]
            choices = [(0, 1) if v == _X else (v,) for v in triple]
            outputs = {evaluate_gate(kind, *bits) for bits in itertools.product(*choices)}
            if len(outputs) == 1:
                table[kind, code] = outputs.pop()
    return table


_TERNARY = _ternary_table()


_KINDS = tuple(GateKind)


def _pack_levels(
    nodes: np.ndarray, levels: np.ndarray, kinds: np.ndarray, fanins: np.ndarray
) -> list[LevelStep]:
    """One :class:`LevelStep` per level present among ``nodes``.

    ``nodes`` are gate ids sorted by (level, arity, kind, id), with
    their ``levels``, ``kinds`` and ``(len(nodes), 3)`` ``fanins``.
    Every step's arrays are views into one packed array per field.  A
    step whose node ids run consecutively gets its ``rows`` as a slice,
    so the kernels read and write the level as a view instead of a
    gather and a scatter; the check is made here, once per packing.
    """
    arity = _ARITY[kinds].astype(np.int64)
    levels = levels.astype(np.int64)
    starts = np.flatnonzero(np.diff(levels, prepend=-1))
    stops = np.append(starts[1:], len(nodes))
    # Arity is sorted inside a level, so (level, arity) is sorted: the
    # first 2- and 3-input gate of each level by binary search.
    by_arity = levels * 4 + arity
    twos = np.searchsorted(by_arity, levels[starts] * 4 + 2)
    muxes = np.searchsorted(by_arity, levels[starts] * 4 + 3)
    in0, in1, in2 = (np.ascontiguousarray(fanins[:, slot]) for slot in range(3))
    # A kind segment starts wherever (level, kind) changes.
    cuts = np.flatnonzero(np.diff(levels * len(_KINDS) + kinds, prepend=-1))
    owner = np.searchsorted(starts, cuts, side="right") - 1
    segments: list[list[tuple[GateKind, int, int]]] = [[] for _ in starts]
    for step, start, stop, kind in zip(
        owner.tolist(),
        (cuts - starts[owner]).tolist(),
        (np.append(cuts[1:], len(nodes)) - starts[owner]).tolist(),
        kinds[cuts].tolist(),
    ):
        segments[step].append((_KINDS[kind], start, stop))
    # Level [lo, hi) runs consecutively iff no id step inside it is not +1.
    breaks = np.concatenate([[0], np.cumsum(np.diff(nodes.astype(np.int64)) != 1)])
    rows = [
        slice(int(nodes[lo]), int(nodes[lo]) + hi - lo)
        if breaks[hi - 1] == breaks[lo]
        else nodes[lo:hi]
        for lo, hi in zip(starts.tolist(), stops.tolist())
    ]
    return [
        LevelStep(
            nodes=nodes[lo:hi],
            in0=in0[lo:hi],
            two=two - lo,
            in1=in1[two:hi],
            mux=mux - lo,
            in2=in2[mux:hi],
            segments=tuple(level_segments),
            rows=level_rows,
        )
        for lo, hi, two, mux, level_segments, level_rows in zip(
            starts.tolist(), stops.tolist(), twos.tolist(), muxes.tolist(), segments, rows
        )
    ]


def levelize(netlist: Netlist, controls: Sequence[int] = ()) -> LevelizedCircuit:
    """Build the levelised form of ``netlist``.

    ``controls`` are the input rows (positions in ``netlist.input_ids``)
    that :meth:`LevelizedCircuit.restrict` may key on; none by default.
    """
    num_nodes = netlist.num_nodes
    node_levels = netlist.levels()
    kinds = np.array([netlist.kind(i) for i in range(num_nodes)], dtype=np.int8)
    fanins = np.full((num_nodes, 3), -1, dtype=np.int32)
    for node_id, _kind, node_fanins in netlist.iter_nodes():
        fanins[node_id, : len(node_fanins)] = node_fanins

    # Level-major, then arity, then kind; node id breaks ties.
    order = np.lexsort((np.arange(num_nodes), kinds, _ARITY[kinds], node_levels))
    gates = order[node_levels[order] > 0].astype(np.int32)
    levels = _pack_levels(gates, node_levels[gates], kinds[gates], fanins[gates])

    return LevelizedCircuit(
        netlist=netlist,
        num_nodes=num_nodes,
        input_ids=np.array(netlist.input_ids, dtype=np.int32),
        output_ids=np.array(netlist.output_ids, dtype=np.int32),
        const0_ids=np.flatnonzero(kinds == GateKind.CONST0).astype(np.int32),
        const1_ids=np.flatnonzero(kinds == GateKind.CONST1).astype(np.int32),
        levels=levels,
        node_levels=node_levels,
        kinds=kinds,
        fanins=fanins,
        controls=np.asarray(controls, dtype=np.int32).reshape(-1),
        node_ids=np.arange(num_nodes, dtype=np.int32),
    )
