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
  recovery, choke-event geometry, trend-statistics edge behaviour).

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
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from repro.arch.trace import BENCHMARK_ORDER, BENCHMARKS, generate_trace
from repro.core import dcs as dcs_mod
from repro.core import scheme_sim
from repro.core.schemes import hfg as hfg_mod
from repro.core.schemes import ocst as ocst_mod
from repro.core.schemes import razor as razor_mod
from repro.core.trident import controller as trident_mod
from repro.obs import audit
from repro.obs import trends
from repro.obs.ledger import LEDGER_VERSION
from repro.pv import chip as chip_mod
from repro.pv.delaymodel import NTC, STC
from repro.qa import circuits, scheme_reference
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


def _close(a: float, b: float, rtol: float = 1e-4, atol: float = 1e-2) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _check_dta_vs_reference(case: dict[str, int]) -> list[str]:
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
        if not _close(float(timings.t_late[t]), t_late):
            violations.append(
                f"transition {t}: t_late engine={float(timings.t_late[t]):.4f} "
                f"reference={t_late:.4f}"
            )
        if not _close(float(timings.t_early[t]), t_early):
            violations.append(
                f"transition {t}: t_early engine={float(timings.t_early[t]):.4f} "
                f"reference={t_early:.4f}"
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
        if not _close(float(late[node_id]), ref_late[node_id]) or not _close(
            float(early[node_id]), ref_early[node_id]
        ):
            violations.append(
                f"node {node_id}: arrivals engine=({float(late[node_id]):.4f}, "
                f"{float(early[node_id]):.4f}) reference=({ref_late[node_id]:.4f}, "
                f"{ref_early[node_id]:.4f})"
            )
            break
    return violations


def _check_batch_vs_scalar(case: dict[str, int]) -> list[str]:
    """The population kernel must be *bit-identical* to the scalar path.

    Stricter than :func:`_check_dta_vs_reference`'s toleranced compare:
    every chip row of ``batch_cycle_timings`` and the thin single-chip
    view must equal ``scalar_cycle_timings`` (the kept pre-batching
    implementation) exactly, element for element.
    """
    netlist = _materialize_netlist(case)
    circuit = levelize(netlist)
    rng = case_rng(case, "vectors")
    num_vectors = case["num_vectors"]
    inputs = rng.integers(0, 2, size=(len(netlist.input_ids), num_vectors)).astype(bool)
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
        scalar = dta.scalar_cycle_timings(circuit, inputs, delays, chunk=chunk)
        row = batch.chip(index)
        for field_name in ("t_late", "t_early", "output_toggles"):
            if not np.array_equal(
                getattr(row, field_name), getattr(scalar, field_name)
            ):
                violations.append(
                    f"chip {index}: batch {field_name} is not bit-identical "
                    f"to the scalar kernel"
                )
                break
        thin = dta.cycle_timings(circuit, inputs, delays, chunk=chunk)
        if not (
            np.array_equal(thin.t_late, scalar.t_late)
            and np.array_equal(thin.t_early, scalar.t_early)
            and np.array_equal(thin.output_toggles, scalar.output_toggles)
        ):
            violations.append(
                f"chip {index}: single-chip view is not bit-identical to "
                f"the scalar kernel"
            )
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
    """The event-compressed DCS/Trident kernels against the per-cycle
    reference loops: every ``SchemeResult`` field and every audit column
    must be equal.  Capacities of 1-8 force evictions (ACSLT set and way
    evictions alike), random error classes force Trident's SE->CE
    escalation, and the DCS tag-granularity knobs vary."""
    trace = _random_error_trace(case)
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
    )
    violations: list[str] = []
    with audit.recording() as sink:
        for scheme, reference in runs:
            kernel = asdict(scheme.simulate(trace))
            kernel_run = sink.runs[-1].to_block()
            expected = asdict(reference(scheme, trace))
            reference_run = sink.runs[-1].to_block()
            for name, value in expected.items():
                if kernel[name] != value:
                    violations.append(
                        f"{scheme.name}: kernel {name}={kernel[name]!r} != reference {value!r}"
                    )
            if kernel_run["events_seen"] != reference_run["events_seen"]:
                violations.append(f"{scheme.name}: audit events_seen differs")
            for name, column in reference_run["columns"].items():
                if not np.array_equal(kernel_run["columns"][name], column):
                    violations.append(f"{scheme.name}: audit column {name!r} differs")
    return violations


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
    from dataclasses import replace

    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.runner import ExperimentContext
    from repro.runtime.executor import run_many
    from repro.runtime.parallel import WorkerSpec, run_fleet

    # fig3_4 (a real trace simulation) is always in; the mask mixes in
    # the cheap static-estimate experiments to vary the merge shape.
    mask = case["subset_mask"]
    ids = ("fig3_4",) + tuple(
        x for i, x in enumerate(_PARALLEL_EXTRAS) if mask >> i & 1
    )
    config = replace(FAST_CONFIG, cycles=case["cycles"])

    serial = run_many(ids, ExperimentContext(config))
    with tempfile.TemporaryDirectory(prefix="qa-fleet-") as tmp:
        spec = WorkerSpec(config=config, checkpoint_dir=os.path.join(tmp, "ckpt"))
        fleet, _stats = run_fleet(ids, spec, jobs=2)

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


def _diff_reports(serial, other, label: str) -> list[str]:
    """Submission-order + bit-identity comparison of two RunReports."""
    if len(serial.outcomes) != len(other.outcomes):
        return [
            f"outcome count serial={len(serial.outcomes)} {label}={len(other.outcomes)}"
        ]
    violations: list[str] = []
    for serial_outcome, other_outcome in zip(serial.outcomes, other.outcomes):
        if serial_outcome.experiment_id != other_outcome.experiment_id:
            violations.append(f"{label} merge order diverged from submission order")
            break
        if serial_outcome.ok != other_outcome.ok:
            violations.append(
                f"{serial_outcome.experiment_id}: ok serial={serial_outcome.ok} "
                f"{label}={other_outcome.ok}"
            )
            continue
        if serial_outcome.ok:
            if serial_outcome.result.to_text() != other_outcome.result.to_text():
                violations.append(
                    f"{serial_outcome.experiment_id}: {label} report diverges "
                    f"from the serial report"
                )
    return violations


def _check_remote_vs_serial(case: dict[str, int]) -> list[str]:
    """The remote socket fleet must match the serial executor bit for
    bit — including with a chaos partition taking a worker out."""
    import subprocess
    import sys
    from dataclasses import replace

    import repro
    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.runner import ExperimentContext
    from repro.runtime.backends import RemoteBackend, RemoteOptions
    from repro.runtime.chaos import ChaosNet
    from repro.runtime.executor import run_many
    from repro.runtime.parallel import WorkerSpec

    mask = case["subset_mask"]
    ids = ("fig3_4",) + tuple(
        x for i, x in enumerate(_PARALLEL_EXTRAS) if mask >> i & 1
    )
    config = replace(FAST_CONFIG, cycles=case["cycles"])
    chaos = ChaosNet("partition") if case["partition"] else None

    serial = run_many(ids, ExperimentContext(config))

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    procs: list = []
    try:
        for _ in range(2):
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.experiments", "worker",
                     "--listen", "127.0.0.1:0", "--max-sessions", "1"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    text=True,
                    env=env,
                )
            )
        addresses = []
        for proc in procs:
            ready = proc.stdout.readline().split()
            if not ready or ready[0] != "READY":
                return [f"worker failed to start (said {ready!r})"]
            addresses.append(f"127.0.0.1:{ready[1]}")
        backend = RemoteBackend(RemoteOptions(
            workers=tuple(addresses),
            heartbeat_s=0.1,
            heartbeat_deadline_s=2.0,
            chaos_net=chaos,
        ))
        with tempfile.TemporaryDirectory(prefix="qa-remote-") as tmp:
            spec = WorkerSpec(config=config, checkpoint_dir=os.path.join(tmp, "ckpt"))
            remote, _stats = backend.run(ids, spec)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return _diff_reports(serial, remote, "remote")


def _check_service_vs_cli(case: dict[str, int]) -> list[str]:
    """A report fetched through the HTTP service must be byte-identical
    to the CLI path's bytes for the same request — and the dedup cache
    must never serve one request another request's bytes.

    Three legs over one live service (real HTTP, ephemeral port):

    1. submit request A, compare the served bytes against the canonical
       renderer over a serial run of the same configuration;
    2. submit request B (same ids/format, different cycle count) and
       make the same comparison — a dedup layer keyed too coarsely
       (the planted ``service-stale-dedup`` mutant) hands B the bytes
       of A and dies here;
    3. resubmit A: it must dedup-hit, serve the identical bytes, and
       not recompute (the ``executed`` counter must not move).
    """
    from dataclasses import replace

    from repro.experiments.config import FAST_CONFIG
    from repro.experiments.reportio import render_report
    from repro.experiments.runner import ExperimentContext
    from repro.runtime.executor import run_many
    from repro.service.client import ServiceClient
    from repro.service.server import ServiceThread

    mask = case["subset_mask"]
    ids = ["fig3_4"] + [
        x for i, x in enumerate(_PARALLEL_EXTRAS) if mask >> i & 1
    ]
    fmt = ("json", "text", "csv")[case["fmt_sel"]]
    cycles_a = case["cycles"]
    cycles_b = cycles_a + 137  # a different, equally valid request

    def cli_bytes(cycles: int) -> bytes:
        config = replace(FAST_CONFIG, cycles=cycles)
        report = run_many(ids, ExperimentContext(config))
        return render_report(report, fmt).encode()

    expected_a = cli_bytes(cycles_a)
    expected_b = cli_bytes(cycles_b)

    violations: list[str] = []
    with tempfile.TemporaryDirectory(prefix="qa-service-") as tmp:
        service = ServiceThread(tmp)
        try:
            client = ServiceClient(port=service.port)

            first = client.submit(ids, fast=True, fmt=fmt, cycles=cycles_a)
            done = client.wait(first["id"], timeout_s=600)
            if done["state"] != "done":
                return [f"job {first['id']} ended {done['state']}: "
                        f"{(done.get('error') or {}).get('message', '')}"]
            if client.report(first["id"]) != expected_a:
                violations.append(
                    f"service report diverges from the CLI bytes (fmt={fmt})"
                )

            second = client.submit(ids, fast=True, fmt=fmt, cycles=cycles_b)
            done_b = client.wait(second["id"], timeout_s=600)
            if done_b["state"] != "done":
                return violations + [
                    f"job {second['id']} ended {done_b['state']}"
                ]
            if client.report(second["id"]) != expected_b:
                violations.append(
                    "dedup served another request's bytes: a different cycle "
                    "count must never reuse a recorded report"
                )

            executed = client.stats()["counters"]["executed"]
            third = client.submit(ids, fast=True, fmt=fmt, cycles=cycles_a)
            if third["disposition"] != "dedup_hit":
                violations.append(
                    f"identical resubmission was {third['disposition']!r}, "
                    "expected a dedup hit"
                )
            elif client.report(third["id"]) != expected_a:
                violations.append("dedup hit served different bytes")
            if client.stats()["counters"]["executed"] != executed:
                violations.append("a dedup hit must not recompute")
        finally:
            service.stop()
    return violations


# ----------------------------------------------------------------------
# trend statistics
# ----------------------------------------------------------------------

def _ledger_record(index: int, counters: dict[str, float]) -> dict:
    return {
        "version": LEDGER_VERSION,
        "run_id": f"run-{index:03d}",
        "counters": counters,
    }


def _check_trends_invariants(case: dict[str, int]) -> list[str]:
    rng = case_rng(case)
    n = case["n"]
    base = float(case["base"])
    violations: list[str] = []

    flat_records = [_ledger_record(i, {"alpha": base}) for i in range(n)]
    findings = trends.detect_drift(flat_records)
    if any(f["drifted"] for f in findings):
        violations.append("an all-identical series must never drift")
    for f in findings:
        if f["metric"] == "counter.alpha" and f["z"] != 0.0:
            violations.append("identical window must score z == 0")

    if n >= 4:  # detect_drift needs min_history(=3) prior points
        spiked = list(flat_records)
        spiked[-1] = _ledger_record(n, {"alpha": base + max(1.0, base) * 1000.0})
        spike_findings = trends.detect_drift(spiked)
        entry = next(
            (f for f in spike_findings if f["metric"] == "counter.alpha"), None
        )
        if entry is None or not entry["drifted"] or not math.isinf(entry["z"]):
            violations.append("a spike over a constant window must drift with z=inf")

    # NaN values are dropped at flatten time, never propagated.
    noisy = _ledger_record(n + 1, {"alpha": base, "beta": math.nan})
    flat = trends.flatten(noisy)
    if "counter.beta" in flat:
        violations.append("flatten must drop non-finite metric values")

    # Self-diff is empty; disjoint metrics land in only_in_*, not zeros.
    record_a = _ledger_record(0, {"alpha": base, "gamma": 1.0})
    record_b = _ledger_record(1, {"alpha": base, "delta": 2.0})
    self_diff = trends.diff_records(record_a, record_a)
    if self_diff["changed"] or self_diff["counter_drift"]:
        violations.append("diffing a record against itself must be empty")
    cross = trends.diff_records(record_a, record_b)
    if cross["only_in_a"] != ["counter.gamma"] or cross["only_in_b"] != ["counter.delta"]:
        violations.append("disjoint metrics must be reported as only_in_a/only_in_b")

    window = [float(rng.uniform(0, 100)) for _ in range(max(3, n))]
    center = trends.median(window)
    if trends.robust_z(center, window) != 0.0:
        violations.append("the window median must score z == 0")
    if trends.mad([5.0, 5.0, 5.0]) != 0.0:
        violations.append("MAD of identical values must be 0")
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
            description="batch + node-resolved DTA vs the scalar reference",
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
            description="population batch kernel bit-identical to the scalar DTA path",
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
            description="event-compressed DCS/Trident kernels equal the per-cycle "
            "reference: results and audit columns",
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
            name="trends_invariants",
            description="MAD drift/diff edge laws of the ledger trend engine",
            params={"n": Param(2, 12), "base": Param(0, 1000), "seed": Param(0, 999_999)},
            check=_check_trends_invariants,
            cost=0.3,
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
        Oracle(
            name="remote_vs_serial",
            description="remote socket fleet vs serial executor, with and "
            "without a chaos partition",
            params={
                "subset_mask": Param(0, 3),
                "cycles": Param(300, 800),
                "partition": Param(0, 1),
            },
            check=_check_remote_vs_serial,
            cost=60.0,
            tier="deep",
        ),
        Oracle(
            name="service_vs_cli",
            description="HTTP service report byte-identical to the CLI "
            "path, dedup never serves stale bytes",
            params={
                "subset_mask": Param(0, 3),
                "cycles": Param(200, 500),
                "fmt_sel": Param(0, 2),
            },
            check=_check_service_vs_cli,
            cost=30.0,
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
