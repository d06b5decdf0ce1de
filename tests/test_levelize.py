"""Unit tests for circuit levelisation into per-level gate steps."""

import numpy as np

from repro.circuits.alu import AluOp
from repro.gates.builder import NetlistBuilder
from repro.gates.celllib import GateKind, fanin_count
from repro.qa.circuits import random_select_netlist
from repro.timing.levelize import levelize
from repro.timing.logic_eval import evaluate_logic

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


# ----------------------------------------------------------------------
# control inputs and restricted circuits
# ----------------------------------------------------------------------


def _gated_pair():
    """``y = (s & a) | (t & b)``: two select-gated branches."""
    builder = NetlistBuilder()
    a, b, s, t = (builder.input(name) for name in "abst")
    left, right = builder.and_(s, builder.not_(a)), builder.and_(t, b)
    builder.output("y", builder.or_(left, right))
    return levelize(builder.build(), controls=[2, 3]), left, right


def test_levelize_has_no_controls_by_default(rng):
    circuit = levelize(random_netlist(rng, num_gates=20))
    assert len(circuit.controls) == 0
    np.testing.assert_array_equal(circuit.node_ids, np.arange(circuit.num_nodes))


def test_constant_values_follow_the_gate_semantics():
    circuit, left, right = _gated_pair()
    values = circuit.constant_values(
        [[True, False], [False, False]], [[False, False], [False, True]]
    )
    assert values[left, 0] == 0  # s = 0: AND with a 0 select
    assert values[right, 0] == 2  # t unknown: X
    assert values[right, 1] == 2  # t = 1: follows b


def test_restrict_drops_the_silenced_branch_and_is_cached():
    circuit, left, right = _gated_pair()
    restricted = circuit.restrict([True, False], [False, False])
    assert circuit.restrict(np.array([True, False]), np.array([False, False])) is restricted
    kept = set(restricted.node_ids.tolist())
    assert right in kept and left in kept  # left is read, as a constant row
    assert restricted.gate_count == 2  # t & b and the OR; not the INV or s & ~a
    assert restricted.node_ids[restricted.const0_ids].tolist() == [left]
    vectors = np.array([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=bool)
    np.testing.assert_array_equal(
        evaluate_logic(restricted, vectors),
        evaluate_logic(circuit, vectors)[restricted.node_ids],
    )


def test_restricted_alu_evaluates_one_op_like_the_full_alu(alu8):
    circuit = levelize(alu8.netlist, controls=alu8.select_rows)
    rng = np.random.default_rng(3)
    for op in (AluOp.ADD, AluOp.MULT, AluOp.ROR):
        known1 = np.array([o is op for o in alu8.ops])
        restricted = circuit.restrict(~known1, known1)
        assert restricted.gate_count < circuit.gate_count
        vectors = alu8.encode_batch(
            np.full(16, int(op)), rng.integers(0, 256, 16), rng.integers(0, 256, 16)
        )
        full = evaluate_logic(circuit, vectors)
        np.testing.assert_array_equal(
            evaluate_logic(restricted, vectors), full[restricted.node_ids]
        )
        outputs = restricted.output_ids
        np.testing.assert_array_equal(
            restricted.node_ids[outputs], circuit.output_ids
        )


def test_restricted_rows_are_level_contiguous(alu8):
    """A restricted circuit lists its non-gate rows first, in netlist
    order, then its cone gates level by level, so every step's rows are
    one slice; the full circuit keeps netlist row order."""
    circuit = levelize(alu8.netlist, controls=alu8.select_rows)
    assert not all(isinstance(step.rows, slice) for step in circuit.levels)
    for step in circuit.levels:
        np.testing.assert_array_equal(np.arange(circuit.num_nodes)[step.rows], step.nodes)
    known1 = np.array([o is AluOp.ADD for o in alu8.ops])
    restricted = circuit.restrict(~known1, known1)
    first_gate = restricted.num_nodes - restricted.gate_count
    head = restricted.node_ids[:first_gate]
    assert (np.diff(head) > 0).all()
    stop = first_gate
    for step in restricted.levels:
        assert step.rows == slice(stop, stop + len(step.nodes))
        np.testing.assert_array_equal(step.nodes, np.arange(stop, stop + len(step.nodes)))
        stop += len(step.nodes)
    assert stop == restricted.num_nodes


def test_or_cone_of_the_16_bit_alu_is_six_levels_deep(alu16):
    """A restricted circuit is levelled by its own cone: the OR cone is
    6 levels deep, although its result-mux gates sit at netlist levels
    set by the multiplier."""
    circuit = levelize(alu16.netlist, controls=alu16.select_rows)
    known1 = np.array([o is AluOp.OR for o in alu16.ops])
    restricted = circuit.restrict(~known1, known1)
    assert circuit.depth == 47
    assert restricted.depth == 6


def _assert_cone_levelled(restricted):
    """Every step's gates sit one level above their deepest
    non-constant fanin; inputs and constant rows are level 0."""
    constant = np.zeros(restricted.num_nodes + 1, dtype=bool)
    constant[restricted.const0_ids] = constant[restricted.const1_ids] = True
    constant[-1] = True  # an unused fanin (-1)
    levels = np.append(restricted.node_levels, 0)
    assert (levels[restricted.input_ids] == 0).all()
    assert (levels[constant[:-1].nonzero()[0]] == 0).all()
    for level, step in enumerate(restricted.levels, start=1):
        fanins = restricted.fanins[step.nodes]
        fanin_levels = np.where(constant[fanins], -1, levels[fanins])
        np.testing.assert_array_equal(levels[step.nodes], level)
        np.testing.assert_array_equal(fanin_levels.max(axis=1), level - 1)


def test_restricted_steps_sit_one_level_above_their_deepest_fanin(alu16, rng):
    circuit = levelize(alu16.netlist, controls=alu16.select_rows)
    for op in alu16.ops:
        known1 = np.array([o is op for o in alu16.ops])
        _assert_cone_levelled(circuit.restrict(~known1, known1))
    # an op change keeps both ops' selects unknown: their union cone
    known0 = np.array([o not in (AluOp.ADD, AluOp.XOR) for o in alu16.ops])
    _assert_cone_levelled(circuit.restrict(known0, np.zeros_like(known0)))
    netlist = random_select_netlist(rng, num_data=5, num_controls=3, num_gates=60)
    circuit = levelize(netlist, controls=range(5, 8))
    for code in range(27):
        values = [code // 9, code // 3 % 3, code % 3]  # 0, 1 or unknown (2)
        known0 = np.array([v == 0 for v in values])
        known1 = np.array([v == 1 for v in values])
        restricted = circuit.restrict(known0, known1)
        _assert_cone_levelled(restricted)
        free = rng.integers(0, 2, size=(3, 16)).astype(bool)
        controls = np.where(known1[:, None], True, np.where(known0[:, None], False, free))
        vectors = np.concatenate([rng.integers(0, 2, size=(5, 16)).astype(bool), controls])
        np.testing.assert_array_equal(
            evaluate_logic(restricted, vectors),
            evaluate_logic(circuit, vectors)[restricted.node_ids],
        )
