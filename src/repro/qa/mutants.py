"""Hand-written semantic mutants and the mutation self-test.

An oracle suite is only as good as the bugs it can catch, so this
module *plants* bugs and checks they get caught.  Each mutant patches
one attribute (a module function or a class method) with a subtly
broken variant modelled on a realistic defect class — off-by-one
rollback accounting, a dropped choke event, swapped min/max arrivals,
a skipped checksum — runs the oracles it should trip, and requires at
least one violation.  A mutant that survives means an oracle has lost
its teeth; the self-test fails loudly.

The baseline leg runs the same cases unmutated and requires *zero*
violations, so a kill can never be a false alarm.  Case streams are
the fuzzer's own (:func:`repro.qa.gen.case_seed`), making the whole
self-test deterministic in its seed.
"""

from __future__ import annotations

import contextlib
import importlib
import pickle
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.qa.engine import run_check
from repro.qa.gen import case_seed, draw_case
from repro.qa.oracles import get_oracle

DEFAULT_ROUNDS = 8


@dataclass(frozen=True)
class Mutant:
    """One planted defect: where it lives and who must kill it."""

    name: str
    description: str
    #: importable module name and dotted attribute path inside it
    #: (``"CycleTimings.classify"`` walks into the class).
    target: tuple[str, str]
    #: original attribute -> broken replacement
    build: Callable[[Callable], Callable]
    #: oracle names that are expected to kill this mutant
    oracles: tuple[str, ...]

    def resolve(self):
        module = importlib.import_module(self.target[0])
        holder = module
        *parents, leaf = self.target[1].split(".")
        for part in parents:
            holder = getattr(holder, part)
        return holder, leaf

    @contextlib.contextmanager
    def applied(self):
        holder, leaf = self.resolve()
        original = getattr(holder, leaf)
        setattr(holder, leaf, self.build(original))
        try:
            yield
        finally:
            setattr(holder, leaf, original)


# ----------------------------------------------------------------------
# the planted defects
# ----------------------------------------------------------------------

def _swap_arrivals(original):
    def propagate(*args, **kwargs):
        block = original(*args, **kwargs)
        # half 0 now holds the earliest arrivals, half 1 the negated latest
        return -block[:, ::-1]

    return propagate


def _early_delay_sign(original):
    def signed_delays(delays32):
        signed = original(delays32)
        # the negated-early half adds +d like the late half, so every
        # gate subtracts its delay from the earliest arrival
        signed[:, 1] = signed[:, 0]
        return signed

    return signed_delays


def _late_second_fanin(original):
    def propagate(circuit, toggled, delays):
        # every level's second-fanin suffix starts one gate late, so the
        # level's first 2-input gate never takes its in1 max/min
        steps = [
            step._replace(two=step.two + 1, in1=step.in1[1:]) if len(step.in1) else step
            for step in circuit.levels
        ]
        return original(replace(circuit, levels=steps), toggled, delays)

    return propagate


def _classify_without_ce(_original):
    from repro.timing.dta import ERR_SE_MAX, ERR_SE_MIN

    def classify(self, clock_period, hold_constraint):
        classes = np.zeros(len(self.t_late), dtype=np.int8)
        classes[self.t_early < hold_constraint] = ERR_SE_MIN
        classes[self.t_late > clock_period] = ERR_SE_MAX
        return classes  # CE cycles silently demoted to SE_MAX

    return classify


def _result_tweak(mutate):
    """simulate() wrapper that post-hoc corrupts the result record."""

    def wrap(original):
        def simulate(self, trace):
            result = original(self, trace)
            mutate(result, trace)
            return result

        return simulate

    return wrap


def _learn_nothing(_original):
    from repro.core.kernels import Inserts

    def lru_inserts(codes, errant, capacity):
        none = np.zeros(0, dtype=np.int64)
        return Inserts(none, none, none)  # the table never learns

    return lru_inserts


def _plru_first_touch(_original):
    def last_before(self, codes, cycle):
        # each slot ranked by its tag's first touch, not its last
        return self.previous[self.keys.searchsorted(codes * self.stride) + 1]

    return last_before


def _drop_choke_event(_original):
    def analyze_choke_event(circuit, chip, vector_prev, *args, **kwargs):
        # every choke event silently discarded, in either call form
        if np.ndim(vector_prev) == 2:
            return [None] * np.shape(vector_prev)[1]
        return None

    return analyze_choke_event


def _adjacent_toggles(_original):
    from repro.timing import dta
    from repro.timing.logic_eval import evaluate_logic

    def pair_arrivals(circuit, prev, curr, delays):
        # treats the pairs as a stream: pair k's initialising vector is
        # taken to be pair k-1's sensitising one
        stream = np.concatenate([prev[:, :1], curr], axis=1)
        values = evaluate_logic(circuit, stream)
        toggled = values[:, 1:] != values[:, :-1]
        block = dta._propagate_arrivals(circuit, toggled, delays)
        return block[:, 0], 0.0 - block[:, 1], toggled

    return pair_arrivals


def _first_occurrence_shift(original):
    def first_occurrences(inputs):
        first, first_of = original(inputs)
        # a repeated transition reads the distinct transition after its
        # key's first occurrence
        repeat = np.ones(len(first_of), dtype=bool)
        repeat[first] = False
        shifted = first_of.copy()
        shifted[repeat] = np.minimum(first_of[repeat] + 1, len(first) - 1)
        return first, shifted

    return first_occurrences


def _current_op_cone(original):
    def window_keys(controls, prev, curr, starts):
        # keyed on the sensitising vectors alone: a control that changes
        # within a pair (the op changes) is taken to be constant
        return original(controls, curr, curr, starts)

    return window_keys


def _cone_level_fanin0(_original):
    def cone_levels(fanin_levels):
        # a cone gate is levelled from its fanin 0 alone, so it can land
        # on or below the level of a deeper fanin 1 or select
        return fanin_levels[:, 0] + 1

    return cone_levels


def _sync_drops_half_word(_original):
    from operator import length_hint

    def _sync(self):
        # the live generator is advanced to the replay's position, but
        # the replay's buffered high 32 bits are not written back
        bitgen = self._bitgen
        bitgen.state = self._saved
        bitgen.advance(self._filled - length_hint(self._words))

    return _sync


def _one_value_draws(original):
    def integers(self, low, high=None):
        # a one-value range consumes a half-word, as a Lemire step
        # without numpy's empty-range shortcut would
        if (high is None and low == 1) or (high is not None and high - low == 1):
            self._half_word()
        return original(self, low, high)

    return integers


def _load_without_checksum(_original):
    from repro.runtime import checkpoint as ckpt

    def load(self, key):
        path = self.path(key)
        if not self.resume or not path.exists():
            self.stats.misses += 1
            return None
        try:
            blob = path.read_bytes()
            header, _, payload = blob.partition(b"\n")
            magic, version, _checksum = header.split(b" ")
            if magic != ckpt._MAGIC:
                raise ValueError("bad magic")
            if version != b"v%d" % ckpt.FORMAT_VERSION:
                self.stats.misses += 1
                return None
            obj = pickle.loads(payload)  # checksum never verified
        except Exception:
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return obj

    return load


def _misalign_etrace(original):
    def build_error_trace(stage, chip, trace, *args, **kwargs):
        etrace = original(stage, chip, trace, *args, **kwargs)
        etrace.instr_init = etrace.instr_sens.copy()  # one-cycle misalignment
        return etrace

    return build_error_trace


def _batch_drift(original):
    def batch_cycle_timings(*args, **kwargs):
        batch = original(*args, **kwargs)
        # A 0.005 ps drift, below any sensible tolerance: only an
        # exact-equality oracle can notice.
        batch.t_late = batch.t_late + np.float32(0.005)
        return batch

    return batch_cycle_timings


def _audit_drop_rollback(original):
    from repro.obs.audit import DEC_DETECT

    def decisions(self, cycles, err, decision, stall=0, penalty=0, novel=False):
        n = len(cycles)
        columns = [np.broadcast_to(col, (n,)) for col in (err, decision, stall, penalty, novel)]
        keep = columns[1] != DEC_DETECT  # rollback flushes vanish from the flight record
        return original(self, np.asarray(cycles)[keep], *(col[keep] for col in columns))

    return decisions


def _stale_digest(_original):
    def request_digest(config, experiments, fmt):
        # the classic cache-keying bug: the digest stops covering the
        # request, so every submission aliases the first recorded report
        return "deadbeefdeadbeef"

    return request_digest


def _razor_offbyone(result, _trace):
    result.flushes = max(0, result.flushes - 1)


def _hfg_ignore_worst(result, trace):
    result.effective_clock_period = trace.clock_period


def _ocst_penalty_undercount(result, _trace):
    result.penalty_cycles = max(0, result.penalty_cycles - result.flushes)


def _dcs_hide_false_positives(result, _trace):
    result.false_positives = 0


MUTANTS: dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            name="swap-arrival-minmax",
            description="DTA propagation returns the earliest arrivals in the "
            "late half and the latest in the early half",
            target=("repro.timing.dta", "_propagate_arrivals"),
            build=_swap_arrivals,
            oracles=("dta_vs_reference",),
        ),
        Mutant(
            name="level-step-arity-offset",
            description="DTA propagation takes each level's second-fanin suffix "
            "one gate late",
            target=("repro.timing.dta", "_propagate_arrivals"),
            build=_late_second_fanin,
            oracles=("dta_vs_reference",),
        ),
        Mutant(
            name="early-delay-sign",
            description="DTA propagation adds +d, not -d, to the negated-early "
            "half, so each gate subtracts its delay from the earliest arrival",
            target=("repro.timing.dta", "_signed_delays"),
            build=_early_delay_sign,
            oracles=("dta_vs_reference",),
        ),
        Mutant(
            name="batch-kernel-drift",
            description="batch kernel rows drift sub-tolerance from the scalar path",
            target=("repro.timing.dta", "batch_cycle_timings"),
            build=_batch_drift,
            oracles=("batch_vs_scalar",),
        ),
        Mutant(
            name="dedup-first-occurrence-shift",
            description="stream kernel's repeated transitions read the timed "
            "transition after their first occurrence",
            target=("repro.timing.dta", "_first_occurrences"),
            build=_first_occurrence_shift,
            oracles=("stream_repeats_vs_pairs",),
        ),
        Mutant(
            name="cone-current-op-only",
            description="stream kernel prunes each window by the current "
            "vectors' controls alone, ignoring the initialising ones",
            target=("repro.timing.dta", "_window_keys"),
            build=_current_op_cone,
            oracles=("cone_vs_full",),
        ),
        Mutant(
            name="cone-level-fanin0-only",
            description="restricted circuits level each cone gate from its "
            "fanin 0 alone, ignoring its other fanins' depth",
            target=("repro.timing.levelize", "_cone_levels"),
            build=_cone_level_fanin0,
            oracles=("cone_vs_full",),
        ),
        Mutant(
            name="pair-adjacent-toggle",
            description="pair-form DTA toggles between adjacent columns "
            "instead of within each (prev, curr) pair",
            target=("repro.timing.dta", "pair_arrivals"),
            build=_adjacent_toggles,
            oracles=("pair_vs_single",),
        ),
        Mutant(
            name="draws-sync-drops-half-word",
            description="the draw replay's sync to the live generator forgets "
            "PCG64's buffered high 32 bits",
            target=("repro.arch.trace", "DrawReplay._sync"),
            build=_sync_drops_half_word,
            oracles=("draws_vs_generator", "trace_vs_reference"),
        ),
        Mutant(
            name="draws-one-value-draws",
            description="the draw replay consumes a half-word for a one-value "
            "integer range, where numpy draws nothing",
            target=("repro.arch.trace", "DrawReplay.integers"),
            build=_one_value_draws,
            oracles=("draws_vs_generator", "trace_vs_reference"),
        ),
        Mutant(
            name="classify-drop-ce",
            description="classify() demotes combined errors to SE_MAX",
            target=("repro.timing.dta", "CycleTimings.classify"),
            build=_classify_without_ce,
            oracles=("classify_partition",),
        ),
        Mutant(
            name="razor-rollback-offbyone",
            description="Razor under-counts its rollback flushes by one",
            target=("repro.core.schemes.razor", "RazorScheme.simulate"),
            build=_result_tweak(_razor_offbyone),
            oracles=("scheme_conservation",),
        ),
        Mutant(
            name="hfg-ignore-worst-arrival",
            description="HFG reports the nominal period instead of guardbanding",
            target=("repro.core.schemes.hfg", "HfgScheme.simulate"),
            build=_result_tweak(_hfg_ignore_worst),
            oracles=("scheme_conservation",),
        ),
        Mutant(
            name="ocst-penalty-undercount",
            description="OCST forgets one cycle of each flush penalty",
            target=("repro.core.schemes.ocst", "OcstScheme.simulate"),
            build=_result_tweak(_ocst_penalty_undercount),
            oracles=("scheme_conservation",),
        ),
        Mutant(
            name="dcs-hide-false-positives",
            description="DCS reports zero false-positive stalls",
            target=("repro.core.dcs", "DcsScheme.simulate"),
            build=_result_tweak(_dcs_hide_false_positives),
            oracles=("scheme_conservation",),
        ),
        Mutant(
            name="audit-drop-rollback",
            description="the flight recorder silently drops rollback (detect) records",
            target=("repro.obs.audit", "RunRecorder.decisions"),
            build=_audit_drop_rollback,
            oracles=("audit_vs_result",),
        ),
        Mutant(
            name="dcs-learning-dropped",
            description="the independent CSLT never inserts a tag",
            target=("repro.core.dcs", "lru_inserts"),
            build=_learn_nothing,
            oracles=("scheme_learning",),
        ),
        Mutant(
            name="trident-learning-dropped",
            description="the Trident CET never inserts an error id",
            target=("repro.core.trident.controller", "lru_inserts"),
            build=_learn_nothing,
            oracles=("scheme_learning",),
        ),
        Mutant(
            name="plru-first-touch",
            description="the table kernels rank pseudo-LRU slots by each tag's "
            "first touch instead of its last",
            target=("repro.core.kernels", "Occurrences.last_before"),
            build=_plru_first_touch,
            oracles=("scheme_kernel_vs_reference",),
        ),
        Mutant(
            name="choke-event-dropped",
            description="analyze_choke_event() returns None unconditionally",
            target=("repro.timing.choke", "analyze_choke_event"),
            build=_drop_choke_event,
            oracles=("choke_detection",),
        ),
        Mutant(
            name="checkpoint-skip-checksum",
            description="CheckpointStore.load() trusts payloads blindly",
            target=("repro.runtime.checkpoint", "CheckpointStore.load"),
            build=_load_without_checksum,
            oracles=("checkpoint_store",),
        ),
        Mutant(
            name="service-stale-dedup",
            description="the service dedup digest collapses to a constant, "
            "serving every request the first recorded report",
            target=("repro.service.jobs", "request_digest"),
            build=_stale_digest,
            oracles=("service_vs_cli",),
        ),
        Mutant(
            name="etrace-misaligned-init",
            description="ErrorTrace init context copies the sensitising one",
            target=("repro.core.scheme_sim", "build_error_trace"),
            build=_misalign_etrace,
            oracles=("etrace_consistency",),
        ),
    )
}


def _sweep(oracle_names: tuple[str, ...], seed: int, rounds: int) -> dict | None:
    """First violation across the oracles' deterministic case streams."""
    for name in oracle_names:
        oracle = get_oracle(name)
        for round_index in range(rounds):
            case = draw_case(oracle.params, case_seed(seed, name, round_index))
            violations = run_check(oracle, case)
            if violations:
                return {
                    "oracle": name,
                    "round": round_index,
                    "case": case,
                    "violation": violations[0],
                }
    return None


def run_mutation_test(
    seed: int = 0,
    rounds: int = DEFAULT_ROUNDS,
    mutant_names: list[str] | None = None,
    progress=None,
) -> dict:
    """Baseline-then-kill sweep over the registered mutants.

    Returns a report dict with ``ok`` true iff the unmutated baseline is
    clean AND every selected mutant is killed.
    """
    selected = sorted(mutant_names) if mutant_names is not None else sorted(MUTANTS)
    unknown = [name for name in selected if name not in MUTANTS]
    if unknown:
        raise KeyError(f"unknown mutant(s): {unknown}")

    involved = tuple(
        sorted({name for m in selected for name in MUTANTS[m].oracles})
    )
    baseline = _sweep(involved, seed, rounds)
    if progress is not None:
        status = "clean" if baseline is None else f"DIRTY: {baseline}"
        progress(f"baseline over {len(involved)} oracle(s): {status}")

    results = {}
    for name in selected:
        mutant = MUTANTS[name]
        with mutant.applied():
            kill = _sweep(mutant.oracles, seed, rounds)
        results[name] = {
            "description": mutant.description,
            "target": list(mutant.target),
            "oracles": list(mutant.oracles),
            "killed": kill is not None,
            "kill": kill,
        }
        if progress is not None:
            if kill is None:
                progress(f"SURVIVED  {name} ({mutant.description})")
            else:
                progress(
                    f"killed    {name} by {kill['oracle']} "
                    f"round {kill['round']}: {kill['violation']}"
                )

    survivors = sorted(n for n, r in results.items() if not r["killed"])
    return {
        "seed": int(seed),
        "rounds": int(rounds),
        "baseline_clean": baseline is None,
        "baseline_violation": baseline,
        "mutants": results,
        "survivors": survivors,
        "ok": baseline is None and not survivors,
    }
