"""Canonical deterministic circuit/chip/trace builders.

These used to live as private helpers scattered across the unit tests
(``tests/test_dta.py``, ``tests/test_choke.py``, ``tests/util.py``);
they are consolidated here so the QA generators and the test suite
construct *the same* structures.  Everything is a pure function of its
arguments (rngs are passed in or derived from integer seeds), which is
what lets the fuzz engine shrink a failing case down to a handful of
scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.scheme_sim import ErrorTrace
from repro.gates.builder import NetlistBuilder
from repro.gates.celllib import GateKind
from repro.gates.netlist import Netlist
from repro.pv.chip import ChipSample
from repro.pv.delaymodel import NTC
from repro.timing.dta import ERR_NONE
from repro.timing.levelize import LevelizedCircuit, levelize

_TWO_INPUT = (
    GateKind.AND2,
    GateKind.OR2,
    GateKind.NAND2,
    GateKind.NOR2,
    GateKind.XOR2,
    GateKind.XNOR2,
)
_ONE_INPUT = (GateKind.BUF, GateKind.INV, GateKind.DBUF)


def random_netlist(
    rng: np.random.Generator | int,
    num_inputs: int = 6,
    num_gates: int = 40,
    num_outputs: int = 4,
    mux_fraction: float = 0.15,
) -> Netlist:
    """A random, structurally-valid combinational netlist.

    ``rng`` may be a generator or a plain integer seed; the structure is
    deterministic either way for a given stream.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    netlist = Netlist("random")
    for i in range(num_inputs):
        netlist.add(GateKind.INPUT, (), name=f"in{i}")
    netlist.add(GateKind.CONST0, ())
    netlist.add(GateKind.CONST1, ())
    for _ in range(num_gates):
        top = netlist.num_nodes
        roll = rng.random()
        if roll < mux_fraction:
            fanins = tuple(int(rng.integers(0, top)) for _ in range(3))
            netlist.add(GateKind.MUX2, fanins)
        elif roll < mux_fraction + 0.2:
            kind = _ONE_INPUT[int(rng.integers(len(_ONE_INPUT)))]
            netlist.add(kind, (int(rng.integers(0, top)),))
        else:
            kind = _TWO_INPUT[int(rng.integers(len(_TWO_INPUT)))]
            fanins = (int(rng.integers(0, top)), int(rng.integers(0, top)))
            netlist.add(kind, fanins)
    total = netlist.num_nodes
    for i in range(num_outputs):
        netlist.mark_output(f"out{i}", int(rng.integers(num_inputs, total)))
    return netlist


def random_select_netlist(
    rng: np.random.Generator | int,
    num_data: int = 4,
    num_controls: int = 3,
    num_gates: int = 40,
    num_outputs: int = 3,
) -> Netlist:
    """A random netlist whose outputs pass a one-hot AND-OR result mux.

    The inputs are ``num_data`` data inputs, then ``num_controls``
    control inputs (input rows ``num_data ..``).  The body is a
    :func:`random_netlist` over all of them; each output ORs one AND
    gate per control, gating a random body node with that control --
    the ALU's result-mux shape, so a control held at 0 silences a whole
    branch, while the body reads the controls as ordinary inputs too.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    num_inputs = num_data + num_controls
    netlist = random_netlist(rng, num_inputs, num_gates, num_outputs=0)
    controls = netlist.input_ids[num_data:]
    # branch sources: any input or body gate, never the two constants
    sources = [*range(num_inputs), *range(num_inputs + 2, netlist.num_nodes)]
    for i in range(num_outputs):
        gated = [
            netlist.add(GateKind.AND2, (control, sources[int(rng.integers(len(sources)))]))
            for control in controls
        ]
        while len(gated) > 1:
            gated = [
                netlist.add(GateKind.OR2, (gated[j], gated[j + 1]))
                for j in range(0, len(gated) - 1, 2)
            ] + gated[len(gated) - len(gated) % 2 :]
        netlist.mark_output(f"out{i}", gated[0])
    return netlist


def random_gate_delays(
    netlist: Netlist, rng: np.random.Generator | int, lo: float = 1.0, hi: float = 20.0
) -> np.ndarray:
    """Random positive per-gate delays (sources stay at zero)."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(int(rng))
    delays = np.zeros(netlist.num_nodes, dtype=np.float64)
    for node_id in range(netlist.num_nodes):
        if netlist.fanins(node_id):
            delays[node_id] = float(rng.uniform(lo, hi))
    return delays


def chain_circuit(
    length: int = 3, gate_delay: float = 10.0
) -> tuple[LevelizedCircuit, np.ndarray]:
    """``in -> BUF x length -> out`` with uniform manual delays."""
    builder = NetlistBuilder()
    node = builder.input("a")
    for _ in range(length):
        node = builder.buf(node)
    builder.output("y", node)
    netlist = builder.build()
    delays = np.zeros(netlist.num_nodes)
    delays[1:] = gate_delay
    return levelize(netlist), delays


@dataclass(frozen=True)
class ChokeFixture:
    """A hand-built chip with one forced choke gate on a short branch.

    The deep branch is driven by input ``a``, the (choked) short branch
    by input ``b``, so callers can sensitise them independently
    (``sel=1`` selects the short branch).  ``nominal_critical`` is the
    PV-free critical-path delay through the deep branch.
    """

    chip: ChipSample
    circuit: LevelizedCircuit
    netlist: Netlist
    a: int
    b: int
    sel: int
    choke_gate: int
    out: int
    nominal_critical: float
    short_arrival: float  # sensitised arrival through the choked branch


def forced_choke_chip(
    deep_len: int = 4,
    short_len: int = 2,
    gate_delay: float = 10.0,
    choke_delay: float = 100.0,
) -> ChokeFixture:
    """Two parallel branches into a mux; the short one gets a choke gate.

    The last buffer of the short branch carries ``choke_delay`` instead
    of its nominal ``gate_delay``; everything else is nominal.  Requires
    ``deep_len > short_len`` so the deep branch stays the nominal
    critical path.
    """
    if deep_len <= short_len:
        raise ValueError("deep_len must exceed short_len")
    if short_len < 1:
        raise ValueError("short_len must be at least 1")
    builder = NetlistBuilder()
    a = builder.input("a")
    b = builder.input("b")
    sel = builder.input("sel")
    deep = a
    for _ in range(deep_len):
        deep = builder.buf(deep)
    short = b
    for _ in range(short_len):
        short = builder.buf(short)
    out = builder.mux(sel, deep, short)
    builder.output("y", out)
    netlist = builder.build()

    nominal = np.zeros(netlist.num_nodes)
    for node in range(netlist.num_nodes):
        if netlist.fanins(node):
            nominal[node] = gate_delay
    delays = nominal.copy()
    delays[short] = choke_delay

    chip = ChipSample(
        netlist=netlist,
        corner=NTC,
        seed=0,
        delta_vth=np.zeros(netlist.num_nodes),
        delays=delays,
        nominal_delays=nominal,
        affected_ids=np.array([short]),
    )
    return ChokeFixture(
        chip=chip,
        circuit=levelize(netlist),
        netlist=netlist,
        a=a,
        b=b,
        sel=sel,
        choke_gate=short,
        out=out,
        nominal_critical=(deep_len + 1) * gate_delay,
        short_arrival=(short_len - 1) * gate_delay + choke_delay + gate_delay,
    )


def synthetic_error_trace(
    err_class: np.ndarray,
    instr_sens: np.ndarray | None = None,
    instr_init: np.ndarray | None = None,
    owm: np.ndarray | None = None,
    size_a: np.ndarray | None = None,
    size_b: np.ndarray | None = None,
    t_late: np.ndarray | None = None,
    t_early: np.ndarray | None = None,
    clock_period: float = 1000.0,
    hold_constraint: float = 120.0,
    benchmark: str = "synthetic",
    corner_vdd: float = 0.45,
) -> ErrorTrace:
    """Hand-built :class:`ErrorTrace` for scheme tests and oracles.

    Defaults: a single repeated instruction context, with ``t_late``
    derived from the error classes (10 % beyond the clock on max errors)
    and ``t_early`` consistent with the min-error cycles.
    """
    err_class = np.asarray(err_class, dtype=np.int8)
    n = len(err_class)

    def default(arr, value, dtype):
        if arr is not None:
            return np.asarray(arr, dtype=dtype)
        return np.full(n, value, dtype=dtype)

    is_max = (err_class == 2) | (err_class == 3)
    is_min = (err_class == 1) | (err_class == 3)
    if t_late is None:
        t_late = np.where(is_max, clock_period * 1.1, clock_period * 0.8)
    if t_early is None:
        t_early = np.where(is_min, hold_constraint * 0.5, hold_constraint * 2.0)

    return ErrorTrace(
        benchmark=benchmark,
        corner="NTC",
        corner_vdd=corner_vdd,
        clock_period=clock_period,
        hold_constraint=hold_constraint,
        instr_sens=default(instr_sens, 1, np.int16),
        instr_init=default(instr_init, 2, np.int16),
        owm_sens=default(owm, True, bool),
        owm_init=default(owm, False, bool),
        size_a=default(size_a, True, bool),
        size_b=default(size_b, False, bool),
        static_ids=np.arange(n, dtype=np.int32),
        t_late=np.asarray(t_late, dtype=np.float32),
        t_early=np.asarray(t_early, dtype=np.float32),
        err_class=err_class,
    )


def all_none(n: int) -> np.ndarray:
    """An all-clean error-class vector."""
    return np.full(n, ERR_NONE, dtype=np.int8)
