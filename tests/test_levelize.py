"""Unit tests for circuit levelisation into per-level gate steps."""

from repro.gates.builder import NetlistBuilder
from repro.gates.celllib import GateKind, fanin_count
from repro.timing.levelize import levelize

from tests.util import random_netlist


def test_levelized_structure_small():
    builder = NetlistBuilder()
    a, b = builder.input("a"), builder.input("b")
    inv = builder.not_(a)
    and_ = builder.and_(inv, b)
    builder.output("y", and_)
    circuit = levelize(builder.build())

    assert circuit.depth == 2
    assert list(circuit.input_ids) == [a, b]
    assert list(circuit.output_ids) == [and_]
    # level 1 holds the INV, level 2 the AND
    first, second = circuit.levels
    assert first.segments == ((GateKind.INV, 0, 1),)
    assert (first.two, first.mux) == (1, 1)
    assert second.segments == ((GateKind.AND2, 0, 1),)
    assert (second.two, second.mux) == (0, 1)
    assert list(second.in0) == [inv] and list(second.in1) == [b]


def test_every_gate_appears_exactly_once(rng):
    netlist = random_netlist(rng, num_gates=60)
    circuit = levelize(netlist)
    seen = []
    for step in circuit.levels:
        seen.extend(step.nodes.tolist())
    gates = [
        node for node, kind, fanins in netlist.iter_nodes() if fanins
    ]
    assert sorted(seen) == sorted(gates)


def test_groups_are_homogeneous_and_leveled(rng):
    """Kind segments tile each step in order, one kind per segment."""
    netlist = random_netlist(rng, num_gates=80)
    circuit = levelize(netlist)
    node_levels = netlist.levels()
    for level_index, step in enumerate(circuit.levels, start=1):
        assert all(node_levels[node] == level_index for node in step.nodes)
        bounds = [0]
        for kind, start, stop in step.segments:
            assert start == bounds[-1] and stop > start  # contiguous, non-empty
            bounds.append(stop)
            assert all(netlist.kind(int(node)) is kind for node in step.nodes[start:stop])
        assert bounds[-1] == len(step.nodes)
        kinds = [kind for kind, _start, _stop in step.segments]
        assert len(set(kinds)) == len(kinds)  # each kind in one segment


def test_arity_never_decreases_within_a_level(rng):
    netlist = random_netlist(rng, num_gates=80)
    for step in levelize(netlist).levels:
        arity = [fanin_count(netlist.kind(int(node))) for node in step.nodes]
        assert arity == sorted(arity)
        # two / mux are the first 2- and 3-input positions
        assert arity[: step.two] == [1] * step.two
        assert arity[step.two : step.mux] == [2] * (step.mux - step.two)
        assert arity[step.mux :] == [3] * (len(arity) - step.mux)


def test_fanin_arrays_match_netlist(rng):
    netlist = random_netlist(rng, num_gates=50)
    circuit = levelize(netlist)
    for step in circuit.levels:
        assert len(step.in0) == len(step.nodes)
        assert len(step.in1) == len(step.nodes) - step.two
        assert len(step.in2) == len(step.nodes) - step.mux
        for i, node in enumerate(step.nodes):
            fanins = netlist.fanins(int(node))
            assert step.in0[i] == fanins[0]
            if i >= step.two:
                assert step.in1[i - step.two] == fanins[1]
            if i >= step.mux:
                assert step.in2[i - step.mux] == fanins[2]


def test_qa_netlists_mix_arities_within_a_level(rng):
    """The fuzzed circuits exercise 1-, 2- and 3-input suffixes in one step."""
    netlist = random_netlist(rng, num_gates=120)
    steps = levelize(netlist).levels
    assert any(0 < step.two < step.mux < len(step.nodes) for step in steps)


def test_const_ids_extracted():
    builder = NetlistBuilder()
    a = builder.input("a")
    zero = builder.const(0)
    one = builder.const(1)
    builder.output("y", builder.mux(a, zero, one))
    circuit = levelize(builder.build())
    assert list(circuit.const0_ids) == [zero]
    assert list(circuit.const1_ids) == [one]


def test_depth_matches_logic_depth(alu8):
    circuit = levelize(alu8.netlist)
    assert circuit.depth == max(alu8.netlist.levels())
