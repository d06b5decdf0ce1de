"""Per-cycle reference replays of the DCS and Trident schemes.

These are the scheme loops as first written: every cycle builds its
tag, probes the table (:class:`~repro.core.cslt.IndependentCSLT`,
:class:`~repro.core.cslt.AssociativeCSLT` or
:class:`~repro.core.trident.cet.ChokeErrorTable`, each with its own
pseudo-LRU tree) and records its audit decision one event at a time.
They exist to validate the event-compressed kernels of
:mod:`repro.core.kernels`, the way :mod:`repro.timing.reference`
validates the DTA: the ``scheme_kernel_vs_reference`` oracle requires
equal :class:`~repro.core.schemes.base.SchemeResult` fields and equal
audit columns.

Each function has the signature of ``simulate``, so a test can install
it in place of the kernel (``DcsScheme.simulate = dcs_reference``).
"""

from __future__ import annotations

from repro.core.cslt import AssociativeCSLT, IndependentCSLT
from repro.core.scheme_sim import ErrorTrace
from repro.core.schemes.base import SchemeResult, record_result
from repro.core.tags import EX_STAGE, DcsTag, ErrorId
from repro.core.trident.cet import ChokeErrorTable
from repro.core.trident.tdc import TransitionDetectorCounter
from repro.obs import audit
from repro.timing.dta import ERR_CE, ERR_NONE


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
