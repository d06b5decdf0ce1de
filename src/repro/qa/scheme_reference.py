"""Per-cycle reference replays of the DCS, Trident and OCST schemes.

These are the scheme loops as first written: every cycle builds its
tag, probes the table (:class:`~repro.core.cslt.IndependentCSLT`,
:class:`~repro.core.cslt.AssociativeCSLT` or
:class:`~repro.core.trident.cet.ChokeErrorTable`, each with its own
pseudo-LRU tree), or for OCST adds its tuned period, compares its late
arrival against it and steps the skew state machine at each interval
end, and records its audit decision one event at a time.
They exist to validate the fast paths (the event-compressed kernels of
:mod:`repro.core.kernels`, OCST's per-interval replay), the way
:mod:`repro.timing.reference` validates the DTA: the
``scheme_kernel_vs_reference`` oracle requires equal
:class:`~repro.core.schemes.base.SchemeResult` fields, of equal types,
and equal audit columns.

Each function has the signature of ``simulate``, so a test can install
it in place of the kernel (``DcsScheme.simulate = dcs_reference``).
"""

from __future__ import annotations

import dataclasses

from repro.core.cslt import AssociativeCSLT, IndependentCSLT
from repro.core.scheme_sim import ErrorTrace
from repro.core.schemes.base import SchemeResult, record_result
from repro.core.tags import EX_STAGE, DcsTag, ErrorId
from repro.core.trident.cet import ChokeErrorTable
from repro.core.trident.tdc import TransitionDetectorCounter
from repro.obs import audit
from repro.timing.dta import ERR_CE, ERR_NONE


def typed_fields(result: SchemeResult) -> dict[str, tuple[type, object]]:
    """Every field of ``result``, each ``extra`` entry as its own
    ``extra[key]`` field, as a ``(type, value)`` pair.

    Comparing these pairs is type-strict: ``np.int64(5) == 5``, but a
    digest of the result's JSON sees different bytes for the two.
    """
    fields = dataclasses.asdict(result)
    extra = fields.pop("extra")
    typed = {name: (type(value), value) for name, value in fields.items()}
    typed.update({f"extra[{key!r}]": (type(value), value) for key, value in extra.items()})
    return typed


def dcs_reference(scheme, trace: ErrorTrace) -> SchemeResult:
    """:meth:`repro.core.dcs.DcsScheme.simulate`, one cycle at a time."""
    if scheme.variant == "icslt":
        table = IndependentCSLT(scheme.capacity)
    else:
        table = AssociativeCSLT(scheme.capacity, scheme.associativity)
    seen_tags: set[DcsTag] = set()

    stalls = 0
    flushes = 0
    predicted = 0
    false_positives = 0
    first_occurrences = 0
    capacity_misses = 0

    max_err = trace.max_err
    err_class = trace.err_class
    stall_penalty = scheme.pipeline.stall_penalty
    flush_penalty = scheme.pipeline.flush_penalty
    sink = audit.get()
    rec = sink.begin_scheme_run(scheme.name, trace) if sink is not None else None

    use_owm = scheme.use_owm
    use_prev = scheme.use_prev
    for j in range(len(trace)):
        tag = DcsTag(
            int(trace.instr_sens[j]),
            bool(trace.owm_sens[j]) if use_owm else False,
            int(trace.instr_init[j]) if use_prev else 0,
            bool(trace.owm_init[j]) if (use_owm and use_prev) else False,
        )
        actual = bool(max_err[j])
        if table.lookup(tag):
            # Avoidance: one stall gives the execute stage an extra
            # cycle, which covers even the worst-case choke path.
            stalls += 1
            if actual:
                predicted += 1
            else:
                false_positives += 1
            if rec is not None:
                rec.decision(
                    j,
                    int(err_class[j]),
                    audit.DEC_PREDICT_HIT if actual else audit.DEC_FALSE_POSITIVE,
                    stall=1,
                    penalty=stall_penalty,
                )
        elif actual:
            # Sensing + recovery: flush the pipeline, replay, record.
            flushes += 1
            novel = tag not in seen_tags
            if not novel:
                capacity_misses += 1  # known tag lost to eviction
            else:
                first_occurrences += 1
                seen_tags.add(tag)
            table.insert(tag)
            if rec is not None:
                rec.decision(
                    j, int(err_class[j]), audit.DEC_DETECT, penalty=flush_penalty, novel=novel
                )

    if rec is not None:
        rec.finish(effective_clock_period=trace.clock_period)
    return record_result(
        SchemeResult(
            scheme=scheme.name,
            benchmark=trace.benchmark,
            base_cycles=len(trace),
            penalty_cycles=stalls * stall_penalty + flushes * flush_penalty,
            effective_clock_period=trace.clock_period,
            errors_total=predicted + flushes,
            errors_predicted=predicted,
            errors_missed=flushes,
            false_positives=false_positives,
            stalls=stalls,
            flushes=flushes,
            unique_instances=len(seen_tags),
            extra={
                "first_occurrences": first_occurrences,
                "capacity_misses": capacity_misses,
                "table_unique_insertions": table.unique_insertions,
            },
        )
    )


def trident_reference(scheme, trace: ErrorTrace) -> SchemeResult:
    """:meth:`repro.core.trident.TridentScheme.simulate`, one cycle at a time."""
    cet = ChokeErrorTable(scheme.cet_capacity)
    seen: set[tuple] = set()

    stalls = 0
    flushes = 0
    predicted = 0
    false_positives = 0
    under_stalled = 0
    first_occurrences = 0
    capacity_misses = 0

    err_class = trace.err_class
    stall_penalty = scheme.pipeline.stall_penalty
    flush_penalty = scheme.pipeline.flush_penalty
    sink = audit.get()
    rec = sink.begin_scheme_run(scheme.name, trace) if sink is not None else None

    for j in range(len(trace)):
        key = (
            int(trace.instr_init[j]),
            int(trace.instr_sens[j]),
            bool(trace.size_a[j]),
            bool(trace.size_b[j]),
            EX_STAGE,
        )
        actual = int(err_class[j])
        stored = cet.lookup(key)
        if stored is not None:
            needed = TransitionDetectorCounter.stall_cycles_for(actual)
            granted = TransitionDetectorCounter.stall_cycles_for(stored)
            stalls += granted
            if actual == ERR_NONE:
                false_positives += 1
                decision, penalty = audit.DEC_FALSE_POSITIVE, granted * stall_penalty
            elif granted >= needed:
                predicted += 1
                decision, penalty = audit.DEC_PREDICT_HIT, granted * stall_penalty
            else:
                # Predicted an SE, got a CE: the stall was insufficient,
                # the trailing violation is detected and corrected, and
                # the stored class escalates.
                under_stalled += 1
                flushes += 1
                cet.insert(ErrorId(key[0], key[1], key[2], key[3], actual))
                decision = audit.DEC_UNDER_STALL
                penalty = granted * stall_penalty + flush_penalty
            if rec is not None:
                rec.decision(j, actual, decision, stall=granted, penalty=penalty)
        elif actual != ERR_NONE:
            flushes += 1
            novel = key not in seen
            if not novel:
                capacity_misses += 1
            else:
                first_occurrences += 1
                seen.add(key)
            cet.insert(ErrorId(key[0], key[1], key[2], key[3], actual))
            if rec is not None:
                rec.decision(j, actual, audit.DEC_DETECT, penalty=flush_penalty, novel=novel)

    if rec is not None:
        rec.finish(effective_clock_period=trace.clock_period)
    return record_result(
        SchemeResult(
            scheme=scheme.name,
            benchmark=trace.benchmark,
            base_cycles=len(trace),
            penalty_cycles=stalls * stall_penalty + flushes * flush_penalty,
            effective_clock_period=trace.clock_period,
            errors_total=predicted + flushes,
            errors_predicted=predicted,
            errors_missed=flushes,
            false_positives=false_positives,
            stalls=stalls,
            flushes=flushes,
            unique_instances=len(seen),
            extra={
                "first_occurrences": first_occurrences,
                "capacity_misses": capacity_misses,
                "under_stalled": under_stalled,
                "ce_count": int((err_class == ERR_CE).sum()),
            },
        )
    )


def ocst_reference(scheme, trace: ErrorTrace) -> SchemeResult:
    """:meth:`repro.core.schemes.ocst.OcstScheme.simulate`, one cycle at a time."""
    period = trace.clock_period
    skew_step = scheme.skew_step_fraction * period
    max_skew = scheme.max_skew_fraction * period
    skew = 0.0

    flushes = 0
    avoided = 0
    elapsed_ps = 0.0
    interval_errors = 0
    interval_cycles = 0
    climb_baseline_rate: float | None = None
    frozen_intervals = 0
    t_late = trace.t_late
    max_err = trace.max_err
    err_class = trace.err_class

    sink = audit.get()
    rec = sink.begin_scheme_run(scheme.name, trace) if sink is not None else None

    for j in range(len(trace)):
        effective = period + skew
        elapsed_ps += effective
        interval_cycles += 1
        if max_err[j]:
            if t_late[j] > effective:
                # Error still trips the speculation window: Razor-style
                # flush + replay.
                flushes += 1
                interval_errors += 1
                elapsed_ps += scheme.pipeline.flush_penalty * effective
                if rec is not None:
                    rec.decision(j, int(err_class[j]), audit.DEC_DETECT,
                                 penalty=scheme.pipeline.flush_penalty)
            else:
                # The tuned skew granted enough extra time.
                avoided += 1
                if rec is not None:
                    rec.decision(j, int(err_class[j]), audit.DEC_AVOID)
        if interval_cycles >= scheme.interval:
            rate = interval_errors / interval_cycles
            if frozen_intervals > 0:
                frozen_intervals -= 1
            elif rate > scheme.error_rate_threshold and skew < max_skew:
                # Climb one step per interval towards the skew bound.
                if climb_baseline_rate is None:
                    climb_baseline_rate = rate
                skew = min(skew + skew_step, max_skew)
            elif skew >= max_skew and climb_baseline_rate is not None:
                # The climb is exhausted: keep the skew only if it is
                # actually buying error reduction.  Choke-path errors
                # sit far beyond any tunable skew range, and paying
                # the stretched period for nothing is strictly worse.
                if rate > 0.95 * climb_baseline_rate:
                    skew = 0.0
                    frozen_intervals = 8
                climb_baseline_rate = None
            elif interval_errors == 0 and skew > 0.0:
                # Tune back towards nominal when the block runs clean.
                skew = max(skew - skew_step, 0.0)
                climb_baseline_rate = None
            interval_errors = 0
            interval_cycles = 0

    base = len(trace)
    total_errors = flushes + avoided
    average_period = elapsed_ps / max(
        base + flushes * scheme.pipeline.flush_penalty, 1
    )
    if rec is not None:
        rec.finish(effective_clock_period=average_period)
    return record_result(SchemeResult(
        scheme=scheme.name,
        benchmark=trace.benchmark,
        base_cycles=base,
        penalty_cycles=flushes * scheme.pipeline.flush_penalty,
        effective_clock_period=average_period,
        errors_total=total_errors,
        errors_predicted=avoided,
        errors_missed=flushes,
        flushes=flushes,
        extra={"final_skew_ps": skew},
    ))
