"""The Choke Detection Controller (CDC) and the full Trident scheme.

Trident's cycle-by-cycle flow (§4.3.2):

1. **Avoidance** -- the newest CCR instruction's context is compared
   against the CET.  On a match the CDC inserts the stall count the
   stored error class dictates (1 for an SE, 2 for a CE), halting the
   subsequent instructions while the scrutinised pipestage finishes
   clean.
2. **Detection** -- on a CET miss, the TDC's illegal-transition count
   classifies any error that occurs.
3. **Correction** -- the CDC flushes the pipeline (P penalty cycles) and
   the CCR supplies the replay address; the EID is recorded for future
   avoidance.

A predicted SE that actually manifests as a CE is under-stalled: the
single stall covers the maximum violation but not the trailing minimum
violation, so detection/correction still fires and the stored class is
escalated.
"""

from __future__ import annotations

import numpy as np

from repro.arch.pipeline import DEFAULT_PIPELINE, PipelineConfig
from repro.core.kernels import encode, first_of_code, lru_inserts, resident_insert
from repro.core.scheme_sim import ErrorTrace
from repro.core.schemes.base import Scheme, SchemeResult, record_result
from repro.obs import audit
from repro.timing.dta import ERR_CE, ERR_NONE


class TridentScheme(Scheme):
    """Comprehensive choke-error mitigation (min + max + consecutive)."""

    name = "Trident"

    def __init__(
        self,
        cet_capacity: int = 128,
        pipeline: PipelineConfig = DEFAULT_PIPELINE,
    ) -> None:
        self.cet_capacity = cet_capacity
        self.pipeline = pipeline

    def simulate(self, trace: ErrorTrace) -> SchemeResult:
        # The CET key: initialising and sensitising opcodes, operand size
        # classes (the pipestage is always EX here).
        codes = encode(
            trace.instr_init, trace.instr_sens, trace.size_a != 0, trace.size_b != 0
        )
        actual = trace.err_class
        errant = actual != ERR_NONE
        inserts = lru_inserts(codes, np.flatnonzero(errant), self.cet_capacity)
        holder = resident_insert(codes, inserts)
        hit = holder >= 0
        flush = errant & ~hit
        novel = first_of_code(codes, flush)

        # The stored class of an entry escalates to CE at the first CE
        # cycle of its tenure (its learning cycle included), so a hit is
        # granted two stalls once a CE of the same tenure came before it.
        ce = actual == ERR_CE
        tenure = holder.copy()
        tenure[inserts.start] = np.arange(len(inserts.start))
        ce_cycles = np.flatnonzero(ce & (tenure >= 0))
        first_ce = np.full(len(inserts.start), len(trace), dtype=np.int64)
        escalated, first = np.unique(tenure[ce_cycles], return_index=True)
        first_ce[escalated] = ce_cycles[first]
        granted = np.where(hit, 1, 0)
        granted[hit] += first_ce[holder[hit]] < np.flatnonzero(hit)
        under = hit & ce & (granted < 2)
        predicted_mask = hit & errant & ~under

        stalls = int(granted.sum())
        flushes = int(flush.sum()) + int(under.sum())
        predicted = int(predicted_mask.sum())
        first_occurrences = int(novel.sum())

        stall_penalty = self.pipeline.stall_penalty
        flush_penalty = self.pipeline.flush_penalty
        sink = audit.get()
        if sink is not None:
            rec = sink.begin_scheme_run(self.name, trace)
            cycles = np.flatnonzero(hit | flush)
            decision = np.select(
                [flush[cycles], under[cycles], predicted_mask[cycles]],
                [audit.DEC_DETECT, audit.DEC_UNDER_STALL, audit.DEC_PREDICT_HIT],
                audit.DEC_FALSE_POSITIVE,
            )
            penalty = granted[cycles] * stall_penalty
            penalty += (flush[cycles] | under[cycles]) * flush_penalty
            rec.decisions(
                cycles,
                actual[cycles],
                decision,
                stall=granted[cycles],
                penalty=penalty,
                novel=novel[cycles],
            )
            rec.finish(effective_clock_period=trace.clock_period)
        return record_result(SchemeResult(
            scheme=self.name,
            benchmark=trace.benchmark,
            base_cycles=len(trace),
            penalty_cycles=stalls * stall_penalty + flushes * flush_penalty,
            effective_clock_period=trace.clock_period,
            errors_total=predicted + flushes,
            errors_predicted=predicted,
            errors_missed=flushes,
            false_positives=int((hit & ~errant).sum()),
            stalls=stalls,
            flushes=flushes,
            unique_instances=first_occurrences,
            extra={
                "first_occurrences": first_occurrences,
                "capacity_misses": int(flush.sum()) - first_occurrences,
                "under_stalled": int(under.sum()),
                "ce_count": int(ce.sum()),
            },
        ))
