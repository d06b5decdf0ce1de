"""The oracle registry: differential and invariant checks over generated cases.

Every oracle is a pure function ``check(case) -> list[str]`` over a flat
scalar case dict (see :mod:`repro.qa.gen`); an empty list means the case
passed.  Two families:

* **differential** — the fast production implementation against an
  independent slow one (vectorised DTA vs :mod:`repro.timing.reference`,
  event-compressed scheme kernels vs :mod:`repro.qa.scheme_reference`,
  parallel fleet vs serial executor);
* **invariant** — conservation laws that must hold on *any* input
  (scheme accounting identities, checkpoint round-trip/corruption
  recovery, choke-event geometry).

Mutation-visibility rule: anything a mutant may patch is called through
its module namespace (``dta.cycle_timings``, ``choke.analyze_choke_event``,
``scheme_sim.build_error_trace``) or through a class attribute, never
through a from-imported local, so :mod:`repro.qa.mutants` can swap the
implementation under the oracles' feet.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import tempfile
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.arch import trace as trace_mod
from repro.arch.isa import INSTRUCTIONS
from repro.arch.trace import BENCHMARK_ORDER, BENCHMARKS, generate_trace
from repro.core import dcs as dcs_mod
from repro.core import scheme_sim
from repro.core.schemes import hfg as hfg_mod
from repro.core.schemes import ocst as ocst_mod
from repro.core.schemes import razor as razor_mod
from repro.core.trident import controller as trident_mod
from repro.obs import audit
from repro.pv import chip as chip_mod
from repro.pv.delaymodel import NTC, STC
from repro.qa import circuits, scheme_reference, trace_reference
from repro.qa.gen import Param, case_rng
from repro.runtime import checkpoint as ckpt_mod
from repro.timing import choke as choke_mod
from repro.timing import dta
from repro.timing import reference
from repro.timing.levelize import levelize
from repro.timing.logic_eval import evaluate_logic


@dataclass(frozen=True)
class Oracle:
    """One registered property: parameter space + check function."""

    name: str
    description: str
    params: dict[str, Param]
    check: Callable[[dict[str, int]], list[str]]
    #: relative planning cost of one case (1.0 = a cheap structural check);
    #: consumed by the deterministic budget planner, never measured.
    cost: float = 1.0
    #: "fast" oracles run in every campaign; "deep" ones (multi-second
    #: end-to-end differentials) only join when the budget affords them.
    tier: str = "fast"


# ----------------------------------------------------------------------
# timing engine vs scalar reference
# ----------------------------------------------------------------------

def _materialize_netlist(case: dict[str, int]):
    rng = case_rng(case, "netlist")
    netlist = circuits.random_netlist(
        rng,
        num_inputs=case["num_inputs"],
        num_gates=case["num_gates"],
        num_outputs=case["num_outputs"],
    )
    return netlist


def _check_logic_vs_reference(case: dict[str, int]) -> list[str]:
    netlist = _materialize_netlist(case)
    rng = case_rng(case, "vectors")
    num_vectors = case["num_vectors"]
    inputs = rng.integers(0, 2, size=(len(netlist.input_ids), num_vectors)).astype(bool)
    values = evaluate_logic(levelize(netlist), inputs)
    violations: list[str] = []
    for t in range(num_vectors):
        expected = reference.reference_logic_eval(netlist, inputs[:, t])
        got = values[:, t]
        for node_id, value in expected.items():
            if int(got[node_id]) != value:
                violations.append(
                    f"vector {t} node {node_id}: vectorised={int(got[node_id])} "
                    f"reference={value}"
                )
                break  # one mismatch per vector is enough signal
    return violations


def _close(a: float, b: float, rtol: float, atol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _same_bits(a, b) -> bool:
    """Two float32 values are the same bit pattern (so -0.0 != +0.0)."""
    return np.float32(a).view(np.uint32) == np.float32(b).view(np.uint32)


def _check_dta_vs_reference(case: dict[str, int]) -> list[str]:
    """The stream kernel and the node-resolved pair form against the
    float32 scalar reference, bit for bit (sign of zero included)."""
    netlist = _materialize_netlist(case)
    delays = circuits.random_gate_delays(netlist, case_rng(case, "delays"))
    rng = case_rng(case, "vectors")
    num_vectors = case["num_vectors"]
    inputs = rng.integers(0, 2, size=(len(netlist.input_ids), num_vectors)).astype(bool)
    circuit = levelize(netlist)
    chunk = max(1, case["chunk"])
    timings = dta.cycle_timings(circuit, inputs, delays, chunk=chunk)

    violations: list[str] = []
    for t in range(num_vectors - 1):
        t_late, t_early, toggles = reference.reference_cycle_timing(
            netlist, inputs[:, t], inputs[:, t + 1], delays
        )
        if not _same_bits(timings.t_late[t], t_late):
            violations.append(
                f"transition {t}: t_late engine={float(timings.t_late[t])!r} "
                f"reference={float(t_late)!r}"
            )
        if not _same_bits(timings.t_early[t], t_early):
            violations.append(
                f"transition {t}: t_early engine={float(timings.t_early[t])!r} "
                f"reference={float(t_early)!r}"
            )
        if int(timings.output_toggles[t]) != toggles:
            violations.append(
                f"transition {t}: toggles engine={int(timings.output_toggles[t])} "
                f"reference={toggles}"
            )
    # Node-resolved arrivals for the first transition (the choke
    # trace-back path consumes these).
    late, early, toggled = dta.single_transition_arrivals(
        circuit, inputs[:, 0], inputs[:, 1], delays
    )
    ref_late, ref_early, ref_toggled = reference.reference_transition_arrivals(
        netlist, inputs[:, 0], inputs[:, 1], delays
    )
    for node_id in range(netlist.num_nodes):
        if bool(toggled[node_id]) != ref_toggled[node_id]:
            violations.append(f"node {node_id}: toggled disagrees")
            break
        if not (
            _same_bits(late[node_id], ref_late[node_id])
            and _same_bits(early[node_id], ref_early[node_id])
        ):
            violations.append(
                f"node {node_id}: arrivals engine=({float(late[node_id])!r}, "
                f"{float(early[node_id])!r}) reference=({float(ref_late[node_id])!r}, "
                f"{float(ref_early[node_id])!r})"
            )
            break
    return violations


def pair_cycle_timings(circuit, inputs: np.ndarray, delays: np.ndarray) -> dta.CycleTimings:
    """The exact per-pair comparator of the stream kernel.

    Times a stream as its adjacent pairs through ``dta.pair_arrivals``
    (no windows, no seams, no chip axis) and reduces over the primary
    outputs here, independently of ``batch_cycle_timings``.  Exact, not
    toleranced: every element must match the stream kernel bit for bit.
    """
    inputs = np.asarray(inputs, dtype=bool)
    late, early, toggled = dta.pair_arrivals(circuit, inputs[:, :-1], inputs[:, 1:], delays)
    out_ids = circuit.output_ids
    out_late = late[out_ids].max(axis=0)
    return dta.CycleTimings(
        t_late=np.where(np.isfinite(out_late), out_late, np.float32(0.0)),
        t_early=early[out_ids].min(axis=0),
        output_toggles=toggled[out_ids].sum(axis=0, dtype=np.int32),
    )


def _stream_parity(circuit, inputs: np.ndarray, case: dict[str, int]) -> list[str]:
    """Every chip row of the stream kernel, and the single-chip view,
    bit-identical to :func:`pair_cycle_timings` on ``inputs``."""
    netlist = circuit.netlist
    num_vectors = inputs.shape[1]
    delay_rng = case_rng(case, "delays")
    num_chips = case["num_chips"]
    rows = [circuits.random_gate_delays(netlist, delay_rng) for _ in range(num_chips)]
    chunk = max(1, case["chunk"])

    batch = dta.batch_cycle_timings(circuit, inputs, np.stack(rows), chunk=chunk)
    if batch.num_chips != num_chips or len(batch) != num_vectors - 1:
        return [
            f"batch shape ({batch.num_chips}, {len(batch)}) != "
            f"({num_chips}, {num_vectors - 1})"
        ]
    violations: list[str] = []
    for index, delays in enumerate(rows):
        pairs = pair_cycle_timings(circuit, inputs, delays)
        row = batch.chip(index)
        for field_name in ("t_late", "t_early", "output_toggles"):
            if not np.array_equal(getattr(row, field_name), getattr(pairs, field_name)):
                violations.append(
                    f"chip {index}: batch {field_name} is not bit-identical "
                    f"to the per-pair path"
                )
                break
        thin = dta.cycle_timings(circuit, inputs, delays, chunk=chunk)
        if not (
            np.array_equal(thin.t_late, pairs.t_late)
            and np.array_equal(thin.t_early, pairs.t_early)
            and np.array_equal(thin.output_toggles, pairs.output_toggles)
        ):
            violations.append(
                f"chip {index}: single-chip view is not bit-identical to "
                f"the per-pair path"
            )
    return violations


def _check_batch_vs_scalar(case: dict[str, int]) -> list[str]:
    """The population kernel must be *bit-identical* to the per-pair path.

    Beyond :func:`_check_dta_vs_reference`'s single chip: every chip
    row of ``batch_cycle_timings`` and the thin single-chip view must
    equal :func:`pair_cycle_timings` (the stream timed as its
    adjacent pairs) exactly, element for element.
    """
    netlist = _materialize_netlist(case)
    rng = case_rng(case, "vectors")
    num_vectors = case["num_vectors"]
    inputs = rng.integers(0, 2, size=(len(netlist.input_ids), num_vectors)).astype(bool)
    return _stream_parity(levelize(netlist), inputs, case)


def _check_stream_repeats_vs_pairs(case: dict[str, int]) -> list[str]:
    """Streams full of repeated transitions, bit-identical to the pairs.

    The vectors are drawn from a pool of 1-4, so transitions repeat
    and the kernel reads most of them back from a first occurrence.
    The all-equal stream of the pool's first vector is checked too.
    Beyond :func:`_stream_parity`, the pooled stream may time at most
    C - 1 transitions and the all-equal stream exactly one.
    """
    netlist = _materialize_netlist(case)
    circuit = levelize(netlist)
    rng = case_rng(case, "vectors")
    pool = rng.integers(0, 2, size=(len(netlist.input_ids), case["pool"])).astype(bool)
    num_vectors = case["num_vectors"]
    streams = {
        "pooled": (pool[:, rng.integers(0, case["pool"], size=num_vectors)], num_vectors - 1),
        "all-equal": (pool[:, np.zeros(num_vectors, dtype=int)], 1),
    }
    violations: list[str] = []
    for label, (inputs, limit) in streams.items():
        violations += [f"{label}: {v}" for v in _stream_parity(circuit, inputs, case)]
        timed = len(dta._first_occurrences(inputs)[0])
        if not 1 <= timed <= limit:
            violations.append(f"{label}: {timed} transitions timed, 1 to {limit} allowed")
    return violations


def _multi_class_stream(case: dict[str, int]):
    """A random netlist with designated controls and a stream over it.

    The netlist's outputs pass a one-hot style AND-OR mux
    (:func:`circuits.random_select_netlist`); each vector takes its
    controls from a pool of 2-4 distinct patterns and its data from a
    pool of 1-6, so the stream mixes classes, repeats transitions, and
    changes class within pairs.  Returns ``(circuit, inputs, patterns,
    rng)``: ``patterns`` is ``(num_controls, P)``, ``rng`` the
    generator the stream was drawn from, for further draws.
    """
    num_data, num_controls = case["num_inputs"], case["num_controls"]
    netlist = circuits.random_select_netlist(
        case_rng(case, "netlist"), num_data, num_controls,
        case["num_gates"], case["num_outputs"],
    )
    circuit = levelize(netlist, controls=range(num_data, num_data + num_controls))
    rng = case_rng(case, "vectors")
    # distinct control patterns, so at least two classes
    codes = rng.choice(
        1 << num_controls, size=min(case["patterns"], 1 << num_controls), replace=False
    )
    patterns = ((codes[None, :] >> np.arange(num_controls)[:, None]) & 1).astype(bool)
    data = rng.integers(0, 2, size=(num_data, case["data_pool"])).astype(bool)
    num_vectors = case["num_vectors"]
    inputs = np.concatenate([
        data[:, rng.integers(0, case["data_pool"], size=num_vectors)],
        patterns[:, rng.integers(0, len(codes), size=num_vectors)],
    ])
    return circuit, inputs, patterns, rng


def _check_cone_vs_full(case: dict[str, int]) -> list[str]:
    """The stream kernel on restricted circuits vs the unpruned pairs.

    A random netlist with designated control inputs feeding a one-hot
    style AND-OR output mux (:func:`circuits.random_select_netlist`);
    each vector takes its controls from a pool of 2-4 distinct patterns
    and its data from a pool of 1-6, so the stream mixes classes, repeats
    transitions, and changes class within pairs.  Every chip row must
    be bit-identical to :func:`pair_cycle_timings`, which propagates
    the unpruned circuit.  For every pattern pair, the restriction
    itself is checked on vectors that match its key: no node it marks
    constant ever takes the other value (so none toggles), and every
    row of the restricted circuit -- inputs, cone, constant rows and
    outputs -- evaluates as the full circuit's node does.
    """
    circuit, inputs, patterns, rng = _multi_class_stream(case)
    violations = _stream_parity(circuit, inputs, case)

    num_data = case["num_inputs"]
    for p in range(patterns.shape[1]):
        for c in range(patterns.shape[1]):
            pair = patterns[:, [p, c]]
            known0, known1 = ~pair.any(axis=1), pair.all(axis=1)
            vectors = np.concatenate([
                rng.integers(0, 2, size=(num_data, 8)).astype(bool),
                pair[:, rng.integers(0, 2, size=8)],
            ])
            values = evaluate_logic(circuit, vectors)
            constant = circuit.constant_values(known0[None], known1[None])[:, 0]
            stable = constant < 2
            if (values[stable] != constant[stable, None]).any():
                violations.append(f"patterns {p} -> {c}: a node marked constant changes value")
            restricted = circuit.restrict(known0, known1)
            if not np.array_equal(
                evaluate_logic(restricted, vectors), values[restricted.node_ids]
            ):
                violations.append(
                    f"patterns {p} -> {c}: restricted circuit disagrees with the full one"
                )
    return violations


def _check_class_bound_soundness(case: dict[str, int]) -> list[str]:
    """The pruned stream kernel skips only transitions that cannot err.

    On :func:`_multi_class_stream`'s netlists and random chips, the
    clock period and the hold constraint sit at the case's percentiles
    of the exact arrivals, so some classes can err and some cannot.  A
    transition is skipped on a chip where its class's bounds
    (``dta.class_bounds``) lie within both.  There, the exact arrivals
    (:func:`pair_cycle_timings`) must lie within both too, and the
    pruned kernel must report the bounds, which must enclose the exact
    arrivals.  Every other transition must be bit-identical to the
    unpruned kernel, and every error class equal to the exact one.
    """
    circuit, inputs, _patterns, _rng = _multi_class_stream(case)
    delay_rng = case_rng(case, "delays")
    rows = np.stack(
        [circuits.random_gate_delays(circuit.netlist, delay_rng) for _ in range(case["num_chips"])]
    )
    chunk = max(1, case["chunk"])
    exact = [pair_cycle_timings(circuit, inputs, delays) for delays in rows]
    late = np.concatenate([timings.t_late for timings in exact])
    early = np.concatenate([timings.t_early for timings in exact])
    early = early[np.isfinite(early)]
    period = float(np.percentile(late, case["period_pct"]))
    hold = float(np.percentile(early, case["hold_pct"])) if len(early) else 0.0

    unpruned = dta.batch_cycle_timings(circuit, inputs, rows, chunk=chunk)
    pruned = dta.batch_cycle_timings(circuit, inputs, rows, chunk=chunk, limits=(period, hold))
    controls = inputs[circuit.controls]
    prev, curr = controls[:, :-1], controls[:, 1:]
    bound_late, bound_early = dta.class_bounds(
        circuit, (~(prev | curr)).T, (prev & curr).T, rows.astype(np.float32)
    )
    skipped = (bound_late <= period) & (bound_early >= hold)

    violations: list[str] = []
    for index, want in enumerate(exact):
        got, full, skip = pruned.chip(index), unpruned.chip(index), skipped[index]
        where = f"chip {index} (period {period!r}, hold {hold!r})"
        if not (
            np.array_equal(got.t_late[~skip], full.t_late[~skip])
            and np.array_equal(got.t_early[~skip], full.t_early[~skip])
        ):
            violations.append(f"{where}: a timed transition differs from the unpruned kernel")
        if (want.t_late[skip] > period).any() or (want.t_early[skip] < hold).any():
            violations.append(f"{where}: a skipped transition can err")
        if not (
            np.array_equal(got.t_late[skip], bound_late[index, skip])
            and np.array_equal(got.t_early[skip], bound_early[index, skip])
        ):
            violations.append(f"{where}: a skipped transition does not read its class bounds")
        if (got.t_late < want.t_late).any() or (got.t_early > want.t_early).any():
            violations.append(f"{where}: a reported arrival is not a bound on the exact one")
        if not np.array_equal(got.classify(period, hold), want.classify(period, hold)):
            violations.append(f"{where}: an error class differs from the exact one")
    return violations


def _check_pair_vs_single(case: dict[str, int]) -> list[str]:
    """K independent pairs in one ``pair_arrivals`` call vs K single calls.

    The pairs are drawn from a small vector pool, so they are not
    adjacent columns of any stream; the last pair is forced to
    prev == curr and, for K >= 3, the second repeats the first.  Every
    column must be bit-identical to ``single_transition_arrivals`` on
    its pair, and column 0 must match the float32 scalar reference bit
    for bit.
    """
    netlist = _materialize_netlist(case)
    circuit = levelize(netlist)
    delays = circuits.random_gate_delays(netlist, case_rng(case, "delays"))
    rng = case_rng(case, "vectors")
    pool = rng.integers(0, 2, size=(len(netlist.input_ids), case["pool"])).astype(bool)
    num_pairs = case["num_pairs"]
    prev_idx = rng.integers(0, case["pool"], size=num_pairs)
    curr_idx = rng.integers(0, case["pool"], size=num_pairs)
    curr_idx[-1] = prev_idx[-1]
    if num_pairs >= 3:
        prev_idx[1], curr_idx[1] = prev_idx[0], curr_idx[0]
    prev, curr = pool[:, prev_idx], pool[:, curr_idx]

    late, early, toggled = dta.pair_arrivals(circuit, prev, curr, delays)
    shape = (netlist.num_nodes, num_pairs)
    if late.shape != shape or early.shape != shape or toggled.shape != shape:
        return [f"pair_arrivals shapes {late.shape}/{early.shape}/{toggled.shape} != {shape}"]
    violations: list[str] = []
    for column in range(num_pairs):
        single = dta.single_transition_arrivals(circuit, prev[:, column], curr[:, column], delays)
        for name, got, want in zip(("late", "early", "toggled"), (late, early, toggled), single):
            if not np.array_equal(got[:, column], want):
                violations.append(
                    f"pair {column} ({int(prev_idx[column])} -> {int(curr_idx[column])}): "
                    f"{name} is not bit-identical to the single-pair path"
                )
    ref_late, ref_early, ref_toggled = reference.reference_transition_arrivals(
        netlist, prev[:, 0], curr[:, 0], delays
    )
    for node_id in range(netlist.num_nodes):
        same = bool(toggled[node_id, 0]) == ref_toggled[node_id]
        same = same and _same_bits(late[node_id, 0], ref_late[node_id])
        if not (same and _same_bits(early[node_id, 0], ref_early[node_id])):
            violations.append(f"pair 0 node {node_id}: arrivals disagree with the reference")
            break
    return violations


def _check_classify_partition(case: dict[str, int]) -> list[str]:
    rng = case_rng(case)
    n = case["n"]
    clock, hold = 100.0, 10.0
    t_late = rng.uniform(50.0, 150.0, size=n).astype(np.float32)
    t_early = rng.uniform(0.0, 20.0, size=n).astype(np.float32)
    timings = dta.CycleTimings(
        t_late=t_late, t_early=t_early, output_toggles=np.ones(n, dtype=np.int32)
    )
    classes = timings.classify(clock, hold)
    violations: list[str] = []
    for j in range(n):
        max_violation = t_late[j] > clock
        min_violation = t_early[j] < hold
        if max_violation and min_violation:
            expected = dta.ERR_CE
        elif max_violation:
            expected = dta.ERR_SE_MAX
        elif min_violation:
            expected = dta.ERR_SE_MIN
        else:
            expected = dta.ERR_NONE
        if int(classes[j]) != expected:
            violations.append(
                f"cycle {j}: classify={int(classes[j])} expected={expected} "
                f"(t_late={float(t_late[j]):.2f}, t_early={float(t_early[j]):.2f})"
            )
    return violations


# ----------------------------------------------------------------------
# scheme conservation laws
# ----------------------------------------------------------------------

_CLOCK = 1000.0
_HOLD = 120.0


def _random_error_trace(case: dict[str, int]):
    rng = case_rng(case, "trace")
    n = case["n"]
    err_class = np.zeros(n, dtype=np.int8)
    err_mask = rng.random(n) < case["err_rate_pct"] / 100.0
    kinds = rng.integers(dta.ERR_SE_MIN, dta.ERR_CE + 1, size=n).astype(np.int8)
    err_class[err_mask] = kinds[err_mask]
    ctx = case["ctx_space"]
    return circuits.synthetic_error_trace(
        err_class,
        instr_sens=rng.integers(0, ctx + 1, size=n).astype(np.int16),
        instr_init=rng.integers(0, ctx + 1, size=n).astype(np.int16),
        owm=rng.random(n) < 0.5,
        size_a=rng.random(n) < 0.5,
        size_b=rng.random(n) < 0.5,
        clock_period=_CLOCK,
        hold_constraint=_HOLD,
    )


def _razor_laws(result, trace) -> list[str]:
    out = []
    errors = int(trace.max_err.sum())
    flush = razor_mod.DEFAULT_PIPELINE.flush_penalty
    if result.errors_total != errors:
        out.append(f"razor errors_total {result.errors_total} != max errors {errors}")
    if result.flushes != errors or result.errors_missed != errors:
        out.append("razor must flush (and miss) every max error")
    if result.errors_predicted != 0 or result.stalls != 0:
        out.append("razor has no prediction mechanism")
    if result.penalty_cycles != errors * flush:
        out.append(
            f"razor penalty {result.penalty_cycles} != errors*flush {errors * flush}"
        )
    if result.effective_clock_period != trace.clock_period:
        out.append("razor must keep the nominal clock period")
    return out


def _hfg_laws(result, trace) -> list[str]:
    out = []
    errors = int(trace.max_err.sum())
    if result.penalty_cycles != 0 or result.flushes != 0 or result.stalls != 0:
        out.append("hfg pays no recovery penalties")
    if result.errors_total != errors or result.errors_predicted != errors:
        out.append("hfg pre-empts exactly the max errors")
    if result.effective_clock_period < trace.clock_period:
        out.append("hfg cannot run faster than the nominal clock")
    worst = float(np.max(trace.t_late)) if len(trace) else 0.0
    if errors > 0 and result.effective_clock_period < worst:
        out.append(
            f"hfg guardbanded period {result.effective_clock_period:.2f} below "
            f"worst sensitised arrival {worst:.2f}"
        )
    return out


def _ocst_laws(result, trace) -> list[str]:
    out = []
    errors = int(trace.max_err.sum())
    flush = ocst_mod.DEFAULT_PIPELINE.flush_penalty
    if result.errors_total != errors:
        out.append(f"ocst errors_total {result.errors_total} != max errors {errors}")
    if result.errors_predicted + result.errors_missed != result.errors_total:
        out.append("ocst avoided + flushed must partition the errors")
    if result.flushes != result.errors_missed:
        out.append("ocst recovers every missed error with a flush")
    if result.penalty_cycles != result.flushes * flush:
        out.append("ocst penalty must be flushes * flush_penalty")
    if result.effective_clock_period < trace.clock_period:
        out.append("ocst average period cannot undercut the nominal clock")
    return out


def _dcs_laws(result, trace) -> list[str]:
    out = []
    errors = int(trace.max_err.sum())
    stall = dcs_mod.DEFAULT_PIPELINE.stall_penalty
    flush = dcs_mod.DEFAULT_PIPELINE.flush_penalty
    if result.errors_total != errors:
        out.append(f"dcs errors_total {result.errors_total} != max errors {errors}")
    if result.errors_predicted + result.flushes != result.errors_total:
        out.append("dcs predicted + flushed must partition the errors")
    if result.stalls != result.errors_predicted + result.false_positives:
        out.append("dcs stall cycles must be prediction hits + false positives")
    if result.errors_missed != result.flushes:
        out.append("dcs missed errors are exactly its flushes")
    expected = result.stalls * stall + result.flushes * flush
    if result.penalty_cycles != expected:
        out.append(f"dcs penalty {result.penalty_cycles} != {expected}")
    extra = result.extra
    if extra["first_occurrences"] + extra["capacity_misses"] != result.flushes:
        out.append("dcs flushes must split into first occurrences + capacity misses")
    if result.unique_instances != extra["first_occurrences"]:
        out.append("dcs unique instances must equal first occurrences")
    return out


def _trident_laws(result, trace) -> list[str]:
    out = []
    errors = int(trace.any_err.sum())
    stall = trident_mod.DEFAULT_PIPELINE.stall_penalty
    flush = trident_mod.DEFAULT_PIPELINE.flush_penalty
    if result.errors_total != errors:
        out.append(
            f"trident errors_total {result.errors_total} != errant cycles {errors}"
        )
    if result.errors_predicted + result.flushes != result.errors_total:
        out.append("trident predicted + flushed must partition the errant cycles")
    extra = result.extra
    expected_flushes = (
        extra["first_occurrences"] + extra["capacity_misses"] + extra["under_stalled"]
    )
    if result.flushes != expected_flushes:
        out.append(
            "trident flushes must split into first occurrences + capacity misses "
            "+ under-stalls"
        )
    expected = result.stalls * stall + result.flushes * flush
    if result.penalty_cycles != expected:
        out.append(f"trident penalty {result.penalty_cycles} != {expected}")
    if extra["ce_count"] != int((trace.err_class == dta.ERR_CE).sum()):
        out.append("trident CE tally disagrees with the trace")
    return out


def _check_scheme_conservation(case: dict[str, int]) -> list[str]:
    trace = _random_error_trace(case)
    capacity = 2 ** case["capacity_log2"]  # the tables require powers of two
    violations: list[str] = []
    runs = (
        ("Razor", razor_mod.RazorScheme(), _razor_laws),
        ("HFG", hfg_mod.HfgScheme(), _hfg_laws),
        ("OCST", ocst_mod.OcstScheme(), _ocst_laws),
        ("DCS-ICSLT", dcs_mod.DcsScheme("icslt", capacity=capacity), _dcs_laws),
        (
            "DCS-ACSLT",
            dcs_mod.DcsScheme(
                "acslt", capacity=capacity, associativity=min(4, capacity)
            ),
            _dcs_laws,
        ),
        ("Trident", trident_mod.TridentScheme(cet_capacity=capacity), _trident_laws),
    )
    for label, scheme, laws in runs:
        result = scheme.simulate(trace)
        if result.base_cycles != len(trace):
            violations.append(f"{label}: base_cycles {result.base_cycles} != {len(trace)}")
        if result.total_cycles != result.base_cycles + result.penalty_cycles:
            violations.append(f"{label}: total_cycles identity broken")
        violations.extend(laws(result, trace))
    return violations


def _check_audit_vs_result(case: dict[str, int]) -> list[str]:
    """Audit-stream conservation: replaying a full (unsampled) audit run
    must reconstruct every ``SchemeResult`` counter exactly, for all five
    scheme state machines (six instances: both DCS table organisations).
    """
    trace = _random_error_trace(case)
    capacity = 2 ** case["capacity_log2"]
    schemes = (
        razor_mod.RazorScheme(),
        hfg_mod.HfgScheme(),
        ocst_mod.OcstScheme(),
        dcs_mod.DcsScheme("icslt", capacity=capacity),
        dcs_mod.DcsScheme("acslt", capacity=capacity, associativity=min(4, capacity)),
        trident_mod.TridentScheme(cet_capacity=capacity),
    )
    violations: list[str] = []
    with audit.recording() as sink:
        for scheme in schemes:
            result = scheme.simulate(trace)
            run = sink.runs[-1].to_block()
            if run["scheme"] != result.scheme or not sink.runs[-1].done:
                violations.append(f"{scheme.name}: audit run missing or unsealed")
                continue
            replayed = audit.replay_counters(run)
            for name, value in replayed.items():
                actual = getattr(result, name)
                exact = (
                    math.isclose(actual, value, rel_tol=0, abs_tol=1e-9)
                    if isinstance(value, float) else actual == value
                )
                if not exact:
                    violations.append(
                        f"{scheme.name}: replayed {name}={value!r} "
                        f"!= result {actual!r}"
                    )
    return violations


def _check_scheme_kernel_vs_reference(case: dict[str, int]) -> list[str]:
    """The event-compressed DCS/Trident kernels and OCST's per-interval
    replay against the per-cycle reference loops: every ``SchemeResult``
    field must be equal and of the same type, and every audit column
    equal.  Capacities of 1-8 force evictions (ACSLT set and way
    evictions alike), random error classes force Trident's SE->CE
    escalation, and the DCS tag-granularity knobs vary.  OCST runs 1-16
    cycle intervals over late arrivals spread across its skew range, so
    it climbs, resets, freezes and tunes back within one trace."""
    trace = _random_error_trace(case)
    # Late arrivals spread across OCST's skew range; the tables ignore them.
    rng = case_rng(case, "ocst")
    late = trace.clock_period * (1.0 + 0.25 * rng.random(len(trace)))
    trace = replace(trace, t_late=np.where(trace.max_err, late, trace.t_late))
    capacity = 2 ** case["capacity_log2"]
    knobs = {"use_owm": bool(case["use_owm"]), "use_prev": bool(case["use_prev"])}
    runs = (
        (dcs_mod.DcsScheme("icslt", capacity=capacity, **knobs), scheme_reference.dcs_reference),
        (
            dcs_mod.DcsScheme(
                "acslt", capacity=capacity, associativity=2 ** case["ways_log2"], **knobs
            ),
            scheme_reference.dcs_reference,
        ),
        (trident_mod.TridentScheme(cet_capacity=capacity), scheme_reference.trident_reference),
        (ocst_mod.OcstScheme(interval=int(rng.integers(1, 17))), scheme_reference.ocst_reference),
    )
    violations: list[str] = []
    with audit.recording() as sink:
        for scheme, reference in runs:
            kernel = scheme_reference.typed_fields(scheme.simulate(trace))
            kernel_run = sink.runs[-1].to_block()
            expected = scheme_reference.typed_fields(reference(scheme, trace))
            reference_run = sink.runs[-1].to_block()
            for name in sorted(kernel.keys() | expected.keys()):
                if kernel.get(name) != expected.get(name):
                    violations.append(
                        f"{scheme.name}: kernel {name}={_typed_repr(kernel.get(name))} "
                        f"!= reference {_typed_repr(expected.get(name))}"
                    )
            if kernel_run["events_seen"] != reference_run["events_seen"]:
                violations.append(f"{scheme.name}: audit events_seen differs")
            for name, column in reference_run["columns"].items():
                if not np.array_equal(kernel_run["columns"][name], column):
                    violations.append(f"{scheme.name}: audit column {name!r} differs")
    return violations


def _typed_repr(field: tuple[type, object] | None) -> str:
    if field is None:
        return "<missing>"
    kind, value = field
    return f"{value!r} ({kind.__name__})"


def _check_scheme_learning(case: dict[str, int]) -> list[str]:
    """Repeated-context learning laws: after the first occurrence, a
    constant error context must be predicted, not re-flushed."""
    n = case["n"]
    scenario = case["scenario"]
    if scenario == 0:
        err = np.full(n, dta.ERR_SE_MAX, dtype=np.int8)
    elif scenario == 1:
        err = np.full(n, dta.ERR_CE, dtype=np.int8)
    else:
        err = np.full(n, dta.ERR_CE, dtype=np.int8)
        err[0] = dta.ERR_SE_MAX
    trace = circuits.synthetic_error_trace(err, clock_period=_CLOCK, hold_constraint=_HOLD)
    violations: list[str] = []

    dcs_result = dcs_mod.DcsScheme("icslt").simulate(trace)
    if dcs_result.flushes != 1 or dcs_result.errors_predicted != n - 1:
        violations.append(
            f"dcs constant-context learning: flushes={dcs_result.flushes} "
            f"predicted={dcs_result.errors_predicted}, want 1 / {n - 1}"
        )
    if dcs_result.unique_instances != 1:
        violations.append("dcs constant context must learn exactly one tag")

    trident_result = trident_mod.TridentScheme().simulate(trace)
    if scenario in (0, 1):
        if trident_result.flushes != 1 or trident_result.errors_predicted != n - 1:
            violations.append(
                f"trident constant-context learning: flushes={trident_result.flushes} "
                f"predicted={trident_result.errors_predicted}, want 1 / {n - 1}"
            )
    else:
        # SE first, then CEs: the stored SE under-stalls the first CE,
        # escalates, and covers the rest.
        extra = trident_result.extra
        if extra["under_stalled"] != 1 or trident_result.flushes != 2:
            violations.append(
                f"trident SE->CE escalation: under_stalled={extra['under_stalled']} "
                f"flushes={trident_result.flushes}, want 1 / 2"
            )
        if trident_result.errors_predicted != n - 2:
            violations.append(
                f"trident SE->CE escalation: predicted={trident_result.errors_predicted}"
                f", want {n - 2}"
            )
    return violations


# ----------------------------------------------------------------------
# trace generator: exact draw replay vs numpy and vs the reference
# ----------------------------------------------------------------------

#: integer ranges the traces rarely or never reach: 32-bit Lemire with
#: ~25% rejection (3·2**30), the edges of the 32-bit path, exactly 2**32
#: (the buffered half-word itself), 64-bit Lemire with ~25% rejection
#: (3·2**62), the widest trace range, and the full 2**64
_EDGE_SPANS = (
    1, 2, 3, 9, 3 << 30, (1 << 32) - 1, 1 << 32, (1 << 32) + 1, 1 << 33,
    3 << 62, (1 << 64) - (1 << 32), 1 << 64,
)


def _draw_script_step(script: np.random.Generator, sync_pct: int):
    """One scripted draw: ``(kind, args)``."""
    if script.random() * 100 < sync_pct:
        kind = ("geometric", "dirichlet", "live_integers")[int(script.integers(3))]
        if kind == "geometric":
            return kind, (float(script.uniform(0.01, 0.99)),)
        if kind == "dirichlet":
            return kind, (script.uniform(0.5, 3.0, size=int(script.integers(1, 8))),)
        return kind, (0, int(script.integers(2, 1 << 20)))
    kind = ("random", "integers", "choice", "pick")[int(script.integers(4))]
    if kind == "random":
        return kind, ()
    if kind == "integers":
        if script.random() < 0.5:
            span = _EDGE_SPANS[int(script.integers(len(_EDGE_SPANS)))]
        elif script.random() < 0.5:
            span = int(script.integers(1, 1 << 20))
        else:
            span = int(script.integers(1 << 32, 1 << 64, dtype=np.uint64))
        low = 0 if span > 1 << 62 else int(script.integers(0, 1000))
        unsigned = low + span > 1 << 63 or bool(script.integers(2))
        return kind, (low, low + span, np.uint64 if unsigned else np.int64)
    size = int(script.integers(1, 12))
    if kind == "choice":
        weights = script.integers(0, 4, size=size).astype(float)
        weights[int(script.integers(size))] += 1.0  # never all zero
        return kind, (weights / weights.sum(),)
    return kind, (tuple(range(0, 7 * size, 7)),)


def _check_draws_vs_generator(case: dict[str, int]) -> list[str]:
    """Every value of a scripted draw sequence equals a live generator's."""
    seed = case["seed"]
    replay = trace_mod.DrawReplay(np.random.default_rng(seed))
    live = np.random.default_rng(seed)
    script = case_rng(case, "script")
    for index in range(case["num_draws"]):
        kind, args = _draw_script_step(script, case["sync_pct"])
        if kind == "random":
            got, want = replay.random(), float(live.random())
        elif kind == "integers":
            low, high, dtype = args
            got, want = replay.integers(low, high), int(live.integers(low, high, dtype=dtype))
            args = (low, high)
        elif kind == "choice":
            (p,) = args
            got = replay.choice(trace_mod.choice_cdf(p))
            want = int(live.choice(len(p), p=p))
        elif kind == "pick":
            (seq,) = args
            got, want = seq[replay.integers(len(seq))], int(live.choice(seq))
        elif kind == "live_integers":
            got = int(replay.call(replay.generator.integers, *args))
            want = int(live.integers(*args))
        else:
            got = replay.call(getattr(replay.generator, kind), *args)
            want = getattr(live, kind)(*args)
        if not np.array_equal(got, want):
            return [f"draw {index} {kind}{args}: replay={got!r} generator={want!r}"]
    return []


def _random_benchmark(case: dict[str, int]) -> trace_mod.BenchmarkConfig:
    rng = case_rng(case, "mix")
    instrs = sorted(INSTRUCTIONS)
    chosen = rng.choice(len(instrs), size=case["mix_size"], replace=False)
    return trace_mod.BenchmarkConfig(
        name="fuzz",
        instr_mix={instrs[i]: float(rng.integers(1, 30)) for i in sorted(chosen)},
        num_blocks=case["num_blocks"],
        block_size_min=case["block_min"],
        block_size_max=case["block_min"] + case["block_extra"],
        block_repeat_mean=case["repeat_x4"] / 4.0,
        value_pool_size=case["pool"],
        value_locality=case["locality_pct"] / 100.0,
        p_large=case["p_large_pct"] / 100.0,
        seed=case["seed"],
    )


_TRACE_ARRAYS = ("instrs", "static_ids", "alu_ops", "a_values", "b_values")


def _check_trace_vs_reference(case: dict[str, int]) -> list[str]:
    """The replaying generator equals the scalar-call reference: all five
    arrays, their dtypes, and ``num_static``."""
    config = _random_benchmark(case)
    args = (config, case["cycles"], case["width"])
    got = trace_mod.generate_trace(*args)
    want = trace_reference.generate_trace(*args)
    violations: list[str] = []
    if got.num_static != want.num_static:
        violations.append(f"num_static {got.num_static} != reference {want.num_static}")
    for name in _TRACE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        if a.dtype != b.dtype:
            violations.append(f"{name} dtype {a.dtype} != reference {b.dtype}")
        elif a.shape != b.shape:
            violations.append(f"{name} shape {a.shape} != reference {b.shape}")
        elif not np.array_equal(a, b):
            first = int(np.flatnonzero(a != b)[0])
            violations.append(
                f"{name}[{first}] = {a[first]} != reference {b[first]}"
            )
    return violations


# ----------------------------------------------------------------------
# error-trace construction on a real (small) EX stage
# ----------------------------------------------------------------------

_STAGE_CACHE: dict[int, object] = {}


def _small_stage(width: int):
    stage = _STAGE_CACHE.get(width)
    if stage is None:
        from repro.circuits.ex_stage import build_ex_stage

        stage = build_ex_stage(width, NTC, buffered=True)
        _STAGE_CACHE[width] = stage
    return stage


def _check_etrace_consistency(case: dict[str, int]) -> list[str]:
    width = 4 if case["width_sel"] == 0 else 8
    stage = _small_stage(width)
    bench = BENCHMARK_ORDER[case["bench"] % len(BENCHMARK_ORDER)]
    trace = generate_trace(
        BENCHMARKS[bench], case["cycles"], width=width, seed=case["trace_seed"]
    )
    chip = stage.fabricate(seed=case["chip_seed"])
    etrace = scheme_sim.build_error_trace(stage, chip, trace)
    violations: list[str] = []
    if len(etrace) != len(trace) - 1:
        violations.append(f"length {len(etrace)} != cycles-1 {len(trace) - 1}")
    if not np.array_equal(etrace.instr_sens, trace.instrs[1:]):
        violations.append("sensitising instructions misaligned with the trace")
    if not np.array_equal(etrace.instr_init, trace.instrs[:-1]):
        violations.append("initialising instructions misaligned with the trace")
    if not np.array_equal(etrace.static_ids, trace.static_ids[1:]):
        violations.append("static ids misaligned with the trace")
    reclassified = dta.CycleTimings(
        t_late=etrace.t_late,
        t_early=etrace.t_early,
        output_toggles=np.zeros(len(etrace), dtype=np.int32),
    ).classify(etrace.clock_period, etrace.hold_constraint)
    if not np.array_equal(reclassified, etrace.err_class):
        violations.append("stored error classes disagree with classify(t_late, t_early)")
    counts = etrace.error_counts()
    if sum(counts.values()) != len(etrace):
        violations.append("error_counts() must partition the trace")
    again = scheme_sim.build_error_trace(stage, chip, trace)
    if not (
        np.array_equal(again.err_class, etrace.err_class)
        and np.array_equal(again.t_late, etrace.t_late)
    ):
        violations.append("build_error_trace is not deterministic")
    return violations


# ----------------------------------------------------------------------
# chip fabrication
# ----------------------------------------------------------------------

def _check_chip_fabrication(case: dict[str, int]) -> list[str]:
    netlist = _materialize_netlist(case)
    fraction = case["affected_pct"] / 100.0
    seed = case["chip_seed"]
    ntc = chip_mod.fabricate_chip(netlist, NTC, seed, affected_fraction=fraction)
    ntc_again = chip_mod.fabricate_chip(netlist, NTC, seed, affected_fraction=fraction)
    stc = chip_mod.fabricate_chip(netlist, STC, seed, affected_fraction=fraction)
    violations: list[str] = []
    if not np.array_equal(ntc.delays, ntc_again.delays):
        violations.append("fabrication is not deterministic for a fixed seed")
    expected_affected = int(round(fraction * netlist.num_gates))
    if len(ntc.affected_ids) != expected_affected:
        violations.append(
            f"affected population {len(ntc.affected_ids)} != "
            f"round({fraction} * {netlist.num_gates}) = {expected_affected}"
        )
    if not np.array_equal(ntc.affected_ids, np.sort(ntc.affected_ids)):
        violations.append("affected_ids must be sorted")
    for node_id in ntc.affected_ids:
        if not netlist.fanins(int(node_id)):
            violations.append(f"affected id {int(node_id)} is not a gate")
            break
    gates = np.array(
        [bool(netlist.fanins(i)) for i in range(netlist.num_nodes)], dtype=bool
    )
    if not (ntc.delays[gates] > 0).all() or not (ntc.delays[~gates] == 0).all():
        violations.append("gate delays must be positive and source delays zero")
    # Same ΔVth field, lower supply: NTC delays must dominate STC's.
    if not np.array_equal(ntc.delta_vth, stc.delta_vth):
        violations.append("ΔVth field must be corner-independent for one seed")
    elif not (ntc.delays[gates] > stc.delays[gates]).all():
        violations.append("NTC delays must exceed STC delays gate-for-gate")
    return violations


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _quiet(logger_name: str):
    """Silence a module's WARNINGs while an oracle *intentionally*
    provokes them (corruption drills would otherwise spam the CLI)."""
    logger = logging.getLogger(logger_name)
    previous = logger.level
    logger.setLevel(logging.ERROR)
    try:
        yield
    finally:
        logger.setLevel(previous)


def _check_checkpoint_store(case: dict[str, int]) -> list[str]:
    with _quiet("repro.runtime.checkpoint"):
        return _checkpoint_store_drill(case)


def _checkpoint_store_drill(case: dict[str, int]) -> list[str]:
    rng = case_rng(case, "blob")
    blob = rng.integers(0, 256, size=case["payload_kb"] * 256, dtype=np.uint8).tobytes()
    obj = {"blob": blob, "tag": "qa"}
    violations: list[str] = []
    with tempfile.TemporaryDirectory(prefix="qa-ckpt-") as tmp:
        store = ckpt_mod.CheckpointStore(os.path.join(tmp, "store"))
        store.save("artefact", obj)
        loaded = store.load("artefact")
        if loaded is None or loaded["blob"] != blob:
            violations.append("round-trip lost or altered the payload")

        # Deterministic bit-flip inside the pickled payload's bytes
        # region: the pickle stays loadable, so only the checksum can
        # catch the tamper.
        path = store.path("artefact")
        raw = path.read_bytes()
        header, _, payload = raw.partition(b"\n")
        index = payload.find(blob)
        corrupted = bytearray(payload)
        if index >= 0:
            corrupted[index + case["flip_at"] % len(blob)] ^= 0xFF
        else:  # pragma: no cover - pickled bytes are stored contiguously
            corrupted[-1] ^= 0xFF
        path.write_bytes(header + b"\n" + bytes(corrupted))
        fresh = ckpt_mod.CheckpointStore(store.root)
        tampered = fresh.load("artefact")
        if tampered is not None:
            violations.append("corrupted entry was served instead of recomputed")
        if fresh.stats.corrupt != 1 or fresh.stats.misses != 1:
            violations.append(
                f"corruption must count as corrupt+miss, got {fresh.stats.as_dict()}"
            )

        # A format-version bump is a miss, not corruption.
        store.save("artefact", obj)
        raw = path.read_bytes()
        header, _, payload = raw.partition(b"\n")
        magic, _version, checksum = header.split(b" ")
        path.write_bytes(magic + b" v999 " + checksum + b"\n" + payload)
        fresh = ckpt_mod.CheckpointStore(store.root)
        if fresh.load("artefact") is not None:
            violations.append("foreign format version must be recomputed")
        if fresh.stats.corrupt != 0:
            violations.append("a version mismatch is not corruption")

        # resume=False: loads miss, saves still refresh the store.
        store.save("artefact", obj)
        no_resume = ckpt_mod.CheckpointStore(store.root, resume=False)
        if no_resume.load("artefact") is not None:
            violations.append("resume=False must never serve cached entries")
        computed = []

        def compute():
            computed.append(1)
            return obj

        resumed = ckpt_mod.CheckpointStore(store.root)
        first = resumed.fetch("fresh-key", compute)
        second = resumed.fetch("fresh-key", compute)
        if len(computed) != 1 or first["blob"] != blob or second["blob"] != blob:
            violations.append("fetch must compute exactly once and then hit")
    return violations


# ----------------------------------------------------------------------
# parallel fleet vs serial executor (deep tier)
# ----------------------------------------------------------------------

_PARALLEL_EXTRAS = ("tab3_ovh", "tab4_ovh")


def _check_parallel_vs_serial(case: dict[str, int]) -> list[str]:
    from repro.experiments.config import FAST_CONFIG
    from repro.runtime.backends import run_experiments
    from repro.runtime.parallel import WorkerSpec

    # fig3_4 (a real trace simulation) is always in; the mask mixes in
    # the cheap static-estimate experiments to vary the merge shape.
    mask = case["subset_mask"]
    ids = ("fig3_4",) + tuple(
        x for i, x in enumerate(_PARALLEL_EXTRAS) if mask >> i & 1
    )
    config = replace(FAST_CONFIG, cycles=case["cycles"])

    # both sides take the CLI's path: run_experiments at --jobs 1 and 2
    serial, _stats = run_experiments(ids, WorkerSpec(config=config), 1)
    with tempfile.TemporaryDirectory(prefix="qa-fleet-") as tmp:
        spec = WorkerSpec(config=config, checkpoint_dir=os.path.join(tmp, "ckpt"))
        fleet, _stats = run_experiments(ids, spec, 2)

    violations: list[str] = []
    if len(serial.outcomes) != len(fleet.outcomes):
        return [
            f"outcome count serial={len(serial.outcomes)} fleet={len(fleet.outcomes)}"
        ]
    for serial_outcome, fleet_outcome in zip(serial.outcomes, fleet.outcomes):
        if serial_outcome.experiment_id != fleet_outcome.experiment_id:
            violations.append("fleet merge order diverged from submission order")
            break
        if serial_outcome.ok != fleet_outcome.ok:
            violations.append(
                f"{serial_outcome.experiment_id}: ok serial={serial_outcome.ok} "
                f"fleet={fleet_outcome.ok}"
            )
            continue
        if serial_outcome.ok:
            a = serial_outcome.result.to_text()
            b = fleet_outcome.result.to_text()
            if a != b:
                violations.append(
                    f"{serial_outcome.experiment_id}: parallel report diverges "
                    f"from the serial report"
                )
    return violations


# ----------------------------------------------------------------------
# choke-event geometry
# ----------------------------------------------------------------------

def _check_choke_detection(case: dict[str, int]) -> list[str]:
    deep_len = case["deep_len"]
    short_len = min(case["short_len"], deep_len - 1)
    choke_delay = 10.0 * case["ratio_x10"] / 10.0
    fixture = circuits.forced_choke_chip(
        deep_len=deep_len, short_len=short_len, choke_delay=choke_delay
    )
    num_inputs = len(fixture.netlist.input_ids)
    prev = np.zeros(num_inputs, dtype=bool)
    curr = np.zeros(num_inputs, dtype=bool)
    prev[fixture.sel] = curr[fixture.sel] = True  # select the short branch
    curr[fixture.b] = True  # toggle it

    event = choke_mod.analyze_choke_event(
        fixture.circuit, fixture.chip, prev, curr, fixture.nominal_critical
    )
    expected_cdl = (
        (fixture.short_arrival - fixture.nominal_critical)
        / fixture.nominal_critical
        * 100.0
    )
    violations: list[str] = []
    if expected_cdl <= 0.0:
        if event is not None:
            violations.append(
                f"no choke path exists (CDL {expected_cdl:.2f}%) but an event "
                f"was reported"
            )
        return violations
    if event is None:
        return [
            f"forced choke (CDL {expected_cdl:.2f}%) went undetected "
            f"(deep={deep_len}, short={short_len}, choke={choke_delay:.0f}ps)"
        ]
    if not _close(event.cdl_percent, expected_cdl, rtol=1e-5, atol=1e-6):
        violations.append(
            f"CDL {event.cdl_percent:.4f}% != hand-computed {expected_cdl:.4f}%"
        )
    if event.category != choke_mod.classify_cdl(expected_cdl):
        violations.append(
            f"category {event.category} != classify_cdl({expected_cdl:.2f}%)"
        )
    if fixture.choke_gate not in event.choke_gate_ids:
        violations.append("the forced choke gate is missing from choke_gate_ids")
    for gate in event.choke_gate_ids:
        if gate not in event.path.nodes:
            violations.append(f"choke gate {gate} does not lie on the traced path")
    if event.path.nodes[0] != fixture.b or event.path.nodes[-1] != fixture.out:
        violations.append("traced path must run from the toggled input to the output")
    expected_cgl = 100.0 / fixture.netlist.num_gates
    if not _close(event.cgl_percent, expected_cgl, rtol=1e-6, atol=1e-9):
        violations.append(f"CGL {event.cgl_percent:.4f}% != {expected_cgl:.4f}%")
    return violations


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

_NETLIST_PARAMS = {
    "net_seed": Param(0, 999_999),
    "num_inputs": Param(2, 8),
    "num_gates": Param(5, 60),
    "num_outputs": Param(1, 6),
}

ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            name="logic_vs_reference",
            description="vectorised logic evaluation vs the scalar reference",
            params={**_NETLIST_PARAMS, "num_vectors": Param(2, 12)},
            check=_check_logic_vs_reference,
            cost=1.5,
        ),
        Oracle(
            name="dta_vs_reference",
            description="batch + node-resolved DTA bit-identical to the float32 "
            "scalar reference",
            params={
                **_NETLIST_PARAMS,
                "num_vectors": Param(2, 10),
                "chunk": Param(1, 16),
            },
            check=_check_dta_vs_reference,
            cost=2.5,
        ),
        Oracle(
            name="batch_vs_scalar",
            description="population batch kernel bit-identical to the per-pair DTA path",
            params={
                **_NETLIST_PARAMS,
                "num_vectors": Param(2, 10),
                "num_chips": Param(1, 6),
                "chunk": Param(1, 16),
            },
            check=_check_batch_vs_scalar,
            cost=3.0,
        ),
        Oracle(
            name="stream_repeats_vs_pairs",
            description="deduplicating stream kernel over repeated transitions "
            "bit-identical to the per-pair DTA path",
            params={
                **_NETLIST_PARAMS,
                "pool": Param(1, 4),
                "num_vectors": Param(2, 24),
                "num_chips": Param(1, 6),
                "chunk": Param(1, 16),
            },
            check=_check_stream_repeats_vs_pairs,
            cost=3.0,
        ),
        Oracle(
            name="cone_vs_full",
            description="stream kernel on class-restricted circuits bit-identical "
            "to the unpruned per-pair DTA path; restriction soundness",
            params={
                **_NETLIST_PARAMS,
                "num_controls": Param(1, 4),
                "patterns": Param(2, 4),
                "data_pool": Param(1, 6),
                "num_vectors": Param(2, 24),
                "num_chips": Param(1, 4),
                "chunk": Param(1, 16),
            },
            check=_check_cone_vs_full,
            cost=3.0,
        ),
        Oracle(
            name="class_bound_soundness",
            description="pruned stream kernel skips only transitions whose exact "
            "arrivals cannot err, reads their class bounds, and times the rest "
            "bit-identically to the unpruned kernel",
            params={
                **_NETLIST_PARAMS,
                "num_controls": Param(1, 4),
                "patterns": Param(2, 4),
                "data_pool": Param(1, 6),
                "num_vectors": Param(2, 24),
                "num_chips": Param(1, 4),
                "chunk": Param(1, 16),
                "period_pct": Param(0, 100),
                "hold_pct": Param(0, 100),
            },
            check=_check_class_bound_soundness,
            cost=3.0,
        ),
        Oracle(
            name="pair_vs_single",
            description="pair-form DTA over K independent pairs bit-identical "
            "to K single-pair calls",
            params={
                **_NETLIST_PARAMS,
                "pool": Param(2, 6),
                "num_pairs": Param(2, 12),
            },
            check=_check_pair_vs_single,
            cost=2.5,
        ),
        Oracle(
            name="classify_partition",
            description="error-class partition totality of CycleTimings.classify",
            params={"n": Param(1, 64), "seed": Param(0, 999_999)},
            check=_check_classify_partition,
            cost=0.3,
        ),
        Oracle(
            name="scheme_conservation",
            description="accounting identities of all five EDAC schemes",
            params={
                "n": Param(2, 200),
                "err_rate_pct": Param(0, 60),
                "ctx_space": Param(0, 5),
                "capacity_log2": Param(1, 6),
                "seed": Param(0, 999_999),
            },
            check=_check_scheme_conservation,
            cost=1.5,
        ),
        Oracle(
            name="audit_vs_result",
            description="full audit stream reconstructs SchemeResult counters exactly",
            params={
                "n": Param(2, 200),
                "err_rate_pct": Param(0, 60),
                "ctx_space": Param(0, 5),
                "capacity_log2": Param(1, 6),
                "seed": Param(0, 999_999),
            },
            check=_check_audit_vs_result,
            cost=2.0,
        ),
        Oracle(
            name="scheme_kernel_vs_reference",
            description="event-compressed DCS/Trident kernels and per-interval OCST "
            "equal the per-cycle reference: result values and types, audit columns",
            params={
                "n": Param(2, 300),
                "err_rate_pct": Param(0, 80),
                "ctx_space": Param(0, 7),
                "capacity_log2": Param(0, 3),
                "ways_log2": Param(0, 2),
                "use_owm": Param(0, 1),
                "use_prev": Param(0, 1),
                "seed": Param(0, 999_999),
            },
            check=_check_scheme_kernel_vs_reference,
            cost=3.0,
        ),
        Oracle(
            name="scheme_learning",
            description="repeated-context prediction laws (DCS table, Trident CET)",
            params={"n": Param(3, 60), "scenario": Param(0, 2)},
            check=_check_scheme_learning,
            cost=0.5,
        ),
        Oracle(
            name="draws_vs_generator",
            description="exact draw replay equals a live numpy Generator "
            "value for value, through syncs for geometric and dirichlet",
            params={
                "seed": Param(0, 999_999),
                "num_draws": Param(1, 400),
                "sync_pct": Param(0, 25),
            },
            check=_check_draws_vs_generator,
            cost=0.5,
        ),
        Oracle(
            name="trace_vs_reference",
            description="replaying trace generator equal to the scalar-call "
            "reference on random benchmark configs",
            params={
                "mix_size": Param(1, len(INSTRUCTIONS)),
                "num_blocks": Param(1, 40),
                "block_min": Param(1, 8),
                "block_extra": Param(0, 8),
                "repeat_x4": Param(0, 160),
                "pool": Param(1, 8),
                "locality_pct": Param(0, 100),
                "p_large_pct": Param(0, 100),
                "width": Param(4, 64),
                "cycles": Param(1, 3000),
                "seed": Param(0, 999_999),
            },
            check=_check_trace_vs_reference,
            cost=2.0,
        ),
        Oracle(
            name="etrace_consistency",
            description="ErrorTrace alignment/classification on a real EX stage",
            params={
                "width_sel": Param(0, 1),
                "bench": Param(0, 5),
                "cycles": Param(50, 300),
                "trace_seed": Param(0, 999_999),
                "chip_seed": Param(0, 99),
            },
            check=_check_etrace_consistency,
            cost=6.0,
        ),
        Oracle(
            name="chip_fabrication",
            description="fabrication determinism, affected-population and corner laws",
            params={**_NETLIST_PARAMS, "affected_pct": Param(0, 10), "chip_seed": Param(0, 999)},
            check=_check_chip_fabrication,
            cost=1.5,
        ),
        Oracle(
            name="checkpoint_store",
            description="round-trip, corruption containment and claim-free fetch",
            params={
                "payload_kb": Param(1, 32),
                "flip_at": Param(0, 999_999),
                "seed": Param(0, 999_999),
            },
            check=_check_checkpoint_store,
            cost=1.0,
        ),
        Oracle(
            name="choke_detection",
            description="forced-choke CDL/CGL geometry vs hand computation",
            params={
                "deep_len": Param(2, 6),
                "short_len": Param(1, 4),
                "ratio_x10": Param(16, 300),
            },
            check=_check_choke_detection,
            cost=0.8,
        ),
        Oracle(
            name="parallel_vs_serial",
            description="--jobs 2 fleet vs serial executor on experiment subsets",
            params={"subset_mask": Param(0, 3), "cycles": Param(300, 800)},
            check=_check_parallel_vs_serial,
            cost=45.0,
            tier="deep",
        ),
    )
}


def get_oracle(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        known = ", ".join(sorted(ORACLES))
        raise KeyError(f"unknown oracle {name!r} (known: {known})") from None
