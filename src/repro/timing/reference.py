"""Reference (scalar) implementations of the timing engines.

These are deliberately simple per-node Python loops with no batching or
levelisation tricks.  They exist to validate the vectorised engines in
:mod:`repro.timing.logic_eval` and :mod:`repro.timing.dta`: the property
tests check both implementations agree on random netlists, random delay
assignments, and random vector pairs.  They are also convenient for
debugging a single suspicious cycle.

The arrival references compute in float32, with one rounding per gate
(``fanin arrival + np.float32(delay)``), as the DTA kernel does, so
they are *exact* references: the kernel must match them bit for bit,
sign of zero included.
"""

from __future__ import annotations

import numpy as np

from repro.gates.celllib import GateKind, evaluate_gate
from repro.gates.netlist import Netlist

_ZERO = np.float32(0.0)
_INF = np.float32(np.inf)


def reference_logic_eval(netlist: Netlist, input_vector) -> dict[int, int]:
    """Evaluate all node values for one primary-input assignment.

    ``input_vector`` lists the input values in ``netlist.input_ids``
    order.  Returns {node_id: 0/1}.
    """
    values: dict[int, int] = {}
    inputs = iter(input_vector)
    for node_id, kind, fanins in netlist.iter_nodes():
        if kind is GateKind.INPUT:
            values[node_id] = int(bool(next(inputs)))
        else:
            values[node_id] = evaluate_gate(kind, *(values[f] for f in fanins))
    return values


def reference_transition_arrivals(
    netlist: Netlist,
    vector_prev,
    vector_curr,
    delays,
) -> tuple[dict[int, float], dict[int, float], dict[int, bool]]:
    """Scalar transition-arrival analysis for one vector pair.

    Returns ``(late, early, toggled)`` dictionaries over all nodes, with
    the same glitch-free semantics as the vectorised engine: a node
    transitions iff its stable value differs between the vectors; its
    latest (earliest) arrival is the max (min) over *toggling* fanins
    plus the gate delay; non-toggling nodes carry -inf / +inf.  The
    arrivals are float32 scalars.
    """
    prev_values = reference_logic_eval(netlist, vector_prev)
    curr_values = reference_logic_eval(netlist, vector_curr)

    late: dict[int, np.float32] = {}
    early: dict[int, np.float32] = {}
    toggled: dict[int, bool] = {}
    for node_id, kind, fanins in netlist.iter_nodes():
        toggles = prev_values[node_id] != curr_values[node_id]
        toggled[node_id] = toggles
        if kind is GateKind.INPUT:
            late[node_id] = _ZERO if toggles else -_INF
            early[node_id] = _ZERO if toggles else _INF
            continue
        if not fanins or not toggles:
            late[node_id] = -_INF
            early[node_id] = _INF
            continue
        delay = np.float32(delays[node_id])
        late[node_id] = max(late[f] for f in fanins) + delay
        early[node_id] = min(early[f] for f in fanins) + delay
    return late, early, toggled


def reference_cycle_timing(
    netlist: Netlist,
    vector_prev,
    vector_curr,
    delays,
) -> tuple[np.float32, np.float32, int]:
    """Scalar per-cycle aggregate: (t_late, t_early, output toggles)."""
    late, early, toggled = reference_transition_arrivals(
        netlist, vector_prev, vector_curr, delays
    )
    out_ids = netlist.output_ids
    finite_late = [late[o] for o in out_ids if np.isfinite(late[o])]
    t_late = max(finite_late) if finite_late else _ZERO
    t_early = min(early[o] for o in out_ids)
    toggles = sum(1 for o in out_ids if toggled[o])
    return t_late, t_early, toggles
