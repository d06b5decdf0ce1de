"""Equivalence properties: vectorised engines vs scalar reference.

The vectorised logic evaluator and dynamic timing analysis must agree
with the deliberately-simple per-node reference implementations on
random netlists, random delays, and random vector pairs.
"""

import math

import numpy as np
import pytest

from repro.timing.dta import cycle_timings, single_transition_arrivals
from repro.timing.levelize import levelize
from repro.timing.reference import (
    reference_cycle_timing,
    reference_logic_eval,
    reference_transition_arrivals,
)

from tests.util import random_netlist


def _bits(value) -> int:
    return int(np.float32(value).view(np.uint32))


def _random_setup(seed, num_inputs=6, num_gates=50):
    rng = np.random.default_rng(seed)
    netlist = random_netlist(rng, num_inputs=num_inputs, num_gates=num_gates)
    delays = np.zeros(netlist.num_nodes)
    for node in range(netlist.num_nodes):
        if netlist.fanins(node):
            delays[node] = float(rng.uniform(1.0, 20.0))
    vec_prev = rng.integers(0, 2, num_inputs).astype(bool)
    vec_curr = rng.integers(0, 2, num_inputs).astype(bool)
    return netlist, delays, vec_prev, vec_curr


@pytest.mark.parametrize("seed", range(12))
def test_transition_arrivals_match_reference(seed):
    netlist, delays, vec_prev, vec_curr = _random_setup(seed)
    circuit = levelize(netlist)
    late_v, early_v, toggled_v = single_transition_arrivals(
        circuit, vec_prev, vec_curr, delays
    )
    late_r, early_r, toggled_r = reference_transition_arrivals(
        netlist, vec_prev, vec_curr, delays
    )
    # The float32 reference is exact: equal bit patterns, so the sign
    # of zero and the infinities of quiet nodes match too.
    for node in range(netlist.num_nodes):
        assert bool(toggled_v[node]) == toggled_r[node], f"toggle @ {node}"
        assert _bits(late_v[node]) == _bits(late_r[node]), f"late @ {node}"
        assert _bits(early_v[node]) == _bits(early_r[node]), f"early @ {node}"


@pytest.mark.parametrize("seed", range(8))
def test_cycle_aggregates_match_reference(seed):
    netlist, delays, vec_prev, vec_curr = _random_setup(seed, num_gates=70)
    circuit = levelize(netlist)
    inputs = np.stack([vec_prev, vec_curr], axis=1)
    batch = cycle_timings(circuit, inputs, delays)
    t_late, t_early, toggles = reference_cycle_timing(
        netlist, vec_prev, vec_curr, delays
    )
    assert _bits(batch.t_late[0]) == _bits(t_late)
    assert _bits(batch.t_early[0]) == _bits(t_early)
    assert batch.output_toggles[0] == toggles


def test_reference_logic_eval_on_alu(alu8):
    rng = np.random.default_rng(5)
    from repro.circuits.alu import AluOp, alu_reference

    for _ in range(5):
        op = AluOp(int(rng.integers(13)))
        a = int(rng.integers(256))
        b = int(rng.integers(256))
        vector = alu8.encode(op, a, b)
        values = reference_logic_eval(alu8.netlist, vector)
        got = sum(values[bit] << i for i, bit in enumerate(alu8.output_bits))
        assert got == alu_reference(op, a, b, 8)


def test_no_transition_when_vectors_equal():
    netlist, delays, vec, _ = _random_setup(99)
    late, early, toggled = reference_transition_arrivals(
        netlist, vec, vec, delays
    )
    assert not any(toggled.values())
    assert all(v == -math.inf for k, v in late.items())


def test_late_never_below_early_per_node():
    """Per node, the latest transition arrival bounds the earliest."""
    for seed in range(6):
        netlist, delays, vec_prev, vec_curr = _random_setup(100 + seed)
        late, early, toggled = reference_transition_arrivals(
            netlist, vec_prev, vec_curr, delays
        )
        for node, toggles in toggled.items():
            if toggles:
                assert late[node] >= early[node] - 1e-9
