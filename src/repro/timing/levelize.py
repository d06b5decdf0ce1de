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
  select is 0 -- so they never toggle.  The same pass gives every
  non-stable gate its *cone level*: 1 + the highest level among its
  non-stable fanins, inputs and stable nodes being level 0;
* a backward closure from the outputs through the non-stable gates
  gives the *cone*: the only gates whose transitions can reach an
  output.  A live gate's non-stable fanins are all live, so a cone
  gate's level over the non-stable nodes is its depth over the cone;
* the cone gates are packed into one step per cone level, and the
  rows compacted to the cone, the stable nodes it reads (which become
  constant rows, at level 0), the outputs and the inputs.

A cone is levelled by its own depth, not by the netlist's: the 16-bit
ALU's OR cone is 6 levels deep, while its result-mux gates sit up to
netlist level 47, where the multiplier puts them.  The kernels walk one
step per level, so a shallow cone costs few dispatches.  Each gate
still reads only rows of lower steps, and the kernels treat it alone,
so results do not depend on which gates share its step.

The compacted rows come in two blocks: first the non-gate rows (the
inputs and the constant rows, with any output among them) in netlist
order, then the cone gates in packing order -- cone level, arity,
kind, node id.  Every step of a restricted circuit then covers one
contiguous row range, and its ``rows`` is a slice: logic evaluation
and the DTA propagation read and write each level as a view.  A full
circuit keeps netlist levels and netlist row order (the pair-form DTA,
the choke analysis and the oracles index its rows by netlist id), so
its steps keep index arrays wherever their ids do not run
consecutively.

:attr:`LevelizedCircuit.node_ids` maps each row of a restricted
circuit back to its netlist node (it is the identity on a full one;
on a restricted one it is increasing over the non-gate rows and
follows the packing order over the gates), so per-node data such as a
chip's delays is gathered through it.
Inputs keep their order and controls their rows, so
:func:`~repro.timing.logic_eval.evaluate_logic` and the DTA
propagation run on a restricted circuit unchanged.  On vectors that
match its key, every row evaluates as its netlist node does in the
full circuit.

Each key is derived once per circuit instance and cached on it.
:meth:`LevelizedCircuit.restrict_many` derives the uncached ones of
many keys together: the forward pass and the backward closure run
once over a ``(nodes, keys)`` block, walked flat so that each level
costs the same few numpy calls for one key or for many; only the
compaction runs per key.  ``restrict`` is its one-key case.
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
    node_levels: np.ndarray  # netlist level; cone level once restricted
    kinds: np.ndarray  # GateKind per node, int8
    fanins: np.ndarray  # (num_nodes, 3) fanin ids, -1 where unused
    controls: np.ndarray  # input rows of the control inputs, int32
    node_ids: np.ndarray  # netlist node of each row (identity unless restricted)
    _restricted: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _walk_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
        one-key case of :meth:`restrict_many` (see the module docstring
        for what the result guarantees).
        """
        known0 = np.asarray(known0, dtype=bool)[None]
        known1 = np.asarray(known1, dtype=bool)[None]
        return self.restrict_many(known0, known1)[0]

    def restrict_many(
        self, known0: np.ndarray, known1: np.ndarray
    ) -> list["LevelizedCircuit"]:
        """One restricted circuit per key: row ``k`` of the ``(K,
        len(controls))`` masks ``known0`` / ``known1``.

        Results are cached per key on this instance; the keys not yet
        cached are derived together, in one forward pass and one
        backward closure over a ``(num_nodes, keys)`` block.
        """
        known0 = np.asarray(known0, dtype=bool)
        known1 = np.asarray(known1, dtype=bool)
        keys = [(k0.tobytes(), k1.tobytes()) for k0, k1 in zip(known0, known1)]
        fresh = {key: k for k, key in enumerate(keys) if key not in self._restricted}
        if fresh:
            picks = list(fresh.values())
            values, levels = self._forward(known0[picks], known1[picks])
            live = self._cone(values)
            for k, key in enumerate(fresh):
                self._restricted[key] = self._compact(values[:, k], levels[:, k], live[:, k])
        return [self._restricted[key] for key in keys]

    def constant_values(self, known0: np.ndarray, known1: np.ndarray) -> np.ndarray:
        """0/1/X forward pass over the vectors whose controls match
        ``known0`` / ``known1``.

        Returns a value per node: 0 or 1 where the node takes that
        value in every matching vector (a *stable* node, which never
        toggles between two of them), 2 (X) where it may take either.
        """
        known0 = np.asarray(known0, dtype=bool)[None]
        known1 = np.asarray(known1, dtype=bool)[None]
        return self._forward(known0, known1)[0][:-1, 0]

    def _walk(self, keys: int) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
        """Flat positions for a walk over a ``(rows, keys)`` block, taken
        node-major (``row * keys + key``) so that one gather serves every
        key: ``reads`` ``(gates, 4, keys)``, ``writes`` ``(gates,
        keys)``, with the gates in level order, and each level's range
        of them.

        A gate reads four rows: its three fanins, with an unused one
        (-1) on the X row ``num_nodes``, and the constant row
        ``num_nodes + 1 + kind`` of :meth:`_forward`'s value block that
        holds its kind.  The key-independent part is cached.
        """
        if self._walk_cache is None:
            gates = np.concatenate([step.nodes for step in self.levels]).astype(np.intp)
            fanins = self.fanins[gates].astype(np.intp)
            fanins[fanins < 0] = self.num_nodes
            kind_rows = self.kinds[gates].astype(np.intp) + self.num_nodes + 1
            bounds = np.cumsum([0] + [len(step.nodes) for step in self.levels]).tolist()
            self._walk_cache = (
                gates, np.column_stack([fanins, kind_rows]), list(zip(bounds[:-1], bounds[1:]))
            )
        gates, slots, bounds = self._walk_cache
        lanes = np.arange(keys)
        return slots[..., None] * keys + lanes, gates[:, None] * keys + lanes, bounds

    def _forward(self, known0: np.ndarray, known1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The 0/1/X forward pass for K keys at once.

        ``known0`` / ``known1`` are ``(K, len(controls))`` masks.
        Returns ``(values, levels)``, each ``(num_nodes + 1, K)``; the
        extra last row is what an unused fanin (-1) reads.  ``values``
        is as :meth:`constant_values`; ``levels`` is 0 at every stable
        node and every input, and 1 + the highest level among its
        fanins at a non-stable gate: its depth over the non-stable
        nodes, which for a cone gate is its depth over the cone.

        A gate's table index ``27 * kind + 9 * v0 + 3 * v1 + v2`` is
        one dot product of its four gathered rows (see :meth:`_walk`).
        """
        keys = len(known0)
        num_nodes = self.num_nodes
        values = np.full((num_nodes + 1 + len(_KINDS), keys), _X, dtype=np.int16)
        values[num_nodes + 1 :] = np.arange(len(_KINDS))[:, None]
        values[self.const0_ids] = 0
        values[self.const1_ids] = 1
        control_ids = self.input_ids[self.controls]
        values[control_ids] = np.where(known1.T, 1, np.where(known0.T, 0, _X))
        levels = np.zeros((num_nodes + 1, keys), dtype=np.int16)
        flat_values, flat_levels = values.ravel(), levels.ravel()
        reads, writes, bounds = self._walk(keys)
        for lo, hi in bounds:
            out = _TERNARY_FLAT[np.dot(_CODE_WEIGHTS, flat_values[reads[lo:hi]])]
            flat_values[writes[lo:hi]] = out
            level = _cone_levels(flat_levels[reads[lo:hi, :3]])
            level *= out == _X
            flat_levels[writes[lo:hi]] = level
        return values[: num_nodes + 1], levels

    def _cone(self, values: np.ndarray) -> np.ndarray:
        """Backward closure from the outputs through the non-stable
        gates, for every key column of :meth:`_forward`'s ``values``:
        a live gate makes its non-stable fanins live.  Fanins sit on
        lower levels, so one reverse sweep over the levels closes every
        cone.  Returns a boolean ``(num_nodes + 1, K)`` block."""
        open_ = values == _X
        open_[-1] = False  # an unused fanin never goes live
        live = np.zeros_like(open_)
        live[self.output_ids] = open_[self.output_ids]
        flat_open, flat_live = open_.ravel(), live.ravel()
        reads, writes, bounds = self._walk(values.shape[1])
        for lo, hi in reversed(bounds):
            gate_live = flat_live[writes[lo:hi]]
            if np.count_nonzero(gate_live):
                fanin = reads[lo:hi, :3]
                flat_live[fanin[flat_open[fanin] & gate_live[:, None]]] = True
        return live

    def _compact(
        self, values: np.ndarray, levels: np.ndarray, live: np.ndarray
    ) -> "LevelizedCircuit":
        """One key's restricted circuit from its columns of the forward
        values, the cone levels and the live mask."""
        values = values[:-1]
        # Rows of the restricted circuit: the cone, every node a cone
        # gate reads (the stable ones become constant rows), the
        # outputs and the inputs.  The non-gate rows come first in node
        # order, then the cone gates in packing order -- cone level,
        # arity, kind, node id -- so every level step covers one
        # contiguous row range.
        gates = np.flatnonzero(live[:-1] & (self.kinds > GateKind.CONST1))
        kinds = self.kinds[gates]
        gates = gates[np.lexsort((gates, kinds, _ARITY[kinds], levels[gates]))]
        keep = live.copy()
        keep[self.fanins[gates]] = True
        keep = keep[:-1]  # the slot unused fanins (-1) marked
        keep[self.output_ids] = True
        keep[self.input_ids] = True
        other = keep.copy()
        other[gates] = False
        rows = np.concatenate([np.flatnonzero(other), gates])
        remap = np.full(self.num_nodes + 1, -1, dtype=np.int32)  # [-1] stays -1
        remap[rows] = np.arange(len(rows), dtype=np.int32)
        steps = _pack_levels(
            remap[gates], levels[gates], self.kinds[gates], remap[self.fanins[gates]]
        )
        constant = keep & (values != _X)
        constant[self.input_ids] = False
        return LevelizedCircuit(
            netlist=self.netlist,
            num_nodes=len(rows),
            input_ids=remap[self.input_ids],
            output_ids=remap[self.output_ids],
            const0_ids=remap[np.flatnonzero(constant & (values == 0))],
            const1_ids=remap[np.flatnonzero(constant & (values == 1))],
            levels=steps,
            node_levels=levels[rows].astype(np.int32),
            kinds=self.kinds[rows],
            fanins=remap[self.fanins[rows]],
            controls=self.controls,
            node_ids=self.node_ids[rows],
        )


def _cone_levels(fanin_levels: np.ndarray) -> np.ndarray:
    """Gates' cone levels from their ``(G, 3, K)`` fanin levels: 1 + the
    highest of them (stable fanins and unused slots read 0)."""
    level = fanin_levels.max(axis=1)
    level += 1
    return level


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


#: the ternary table flattened: index ``27 * kind + 9 * v0 + 3 * v1 + v2``
_TERNARY_FLAT = _ternary_table().ravel()
#: dot with a gate's four gathered rows (fanins 0-2, kind): its table index
_CODE_WEIGHTS = np.array([9, 3, 1, 27], dtype=np.int16)


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
