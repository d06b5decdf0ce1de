"""Dynamic Choke Sensing (DCS): the DATE 2017 technique.

DCS operates in three interlinked stages (§3.3.4):

1. **Choke sensing** -- the learning phase.  Each unique timing-error
   instance is allowed to occur once; its four-part tag (errant
   opcode+OWM, previous opcode+OWM) is recorded in the CSLT.
2. **Choke error recovery** -- on a sensed (unpredicted) error the Choke
   Controller flushes the pipeline and replays the instruction, costing
   P cycles (P = pipeline depth).
3. **Timing error avoidance** -- the adaptive phase.  Every decode-stage
   opcode is looked up in the CSLT; on a hit, a single stall cycle is
   inserted before the execute stage, giving the instruction the two
   cycles the worst-case choke path needs.

Error handling (§3.3.5): a false-positive table match costs one wasted
stall; a false negative pays the full flush-and-replay penalty.

DCS addresses *maximum* timing violations only -- minimum violations are
assumed handled by buffer insertion (the assumption Trident later
removes).
"""

from __future__ import annotations

import numpy as np

from repro.arch.pipeline import DEFAULT_PIPELINE, PipelineConfig
from repro.core.kernels import (
    encode,
    first_of_code,
    lru_inserts,
    resident_insert,
    set_associative_inserts,
)
from repro.core.scheme_sim import ErrorTrace
from repro.core.schemes.base import Scheme, SchemeResult, record_result
from repro.obs import audit


class DcsScheme(Scheme):
    """DCS with either CSLT organisation.

    ``variant="icslt"`` uses a fully-associative table of ``capacity``
    independent tuples; ``variant="acslt"`` uses ``capacity`` set tuples
    of ``associativity`` previous-pair ways each.
    """

    def __init__(
        self,
        variant: str = "icslt",
        capacity: int = 128,
        associativity: int = 16,
        pipeline: PipelineConfig = DEFAULT_PIPELINE,
        use_owm: bool = True,
        use_prev: bool = True,
    ) -> None:
        if variant not in ("icslt", "acslt"):
            raise ValueError(f"unknown DCS variant {variant!r}")
        self.variant = variant
        self.capacity = capacity
        self.associativity = associativity
        self.pipeline = pipeline
        #: ablation knobs for the tag granularity study: ``use_owm=False``
        #: drops the operand-width bits, ``use_prev=False`` drops the
        #: initialising-instruction half (an opcode-only tag, the
        #: granularity of earlier PC/opcode predictors the paper improves
        #: on).
        self.use_owm = use_owm
        self.use_prev = use_prev
        self.name = "DCS-ICSLT" if variant == "icslt" else "DCS-ACSLT"
        if not use_owm or not use_prev:
            suffix = []
            if not use_owm:
                suffix.append("noOWM")
            if not use_prev:
                suffix.append("noPrev")
            self.name += "[" + ",".join(suffix) + "]"

    def simulate(self, trace: ErrorTrace) -> SchemeResult:
        # The errant (opcode, OWM) pair is the ACSLT set; the previous
        # pair completes the four-part tag.  A knob that drops a field
        # drops its column, which is the same as holding it constant.
        errant_pair = [trace.instr_sens] + ([trace.owm_sens != 0] if self.use_owm else [])
        prev_pair = [trace.instr_init] if self.use_prev else []
        if self.use_owm and self.use_prev:
            prev_pair.append(trace.owm_init != 0)
        codes = encode(*errant_pair, *prev_pair)
        max_err = trace.max_err
        errant = np.flatnonzero(max_err)
        if self.variant == "icslt":
            inserts = lru_inserts(codes, errant, self.capacity)
            insertions = len(inserts.code)
        else:
            inserts, insertions = set_associative_inserts(
                encode(*errant_pair), codes, errant, self.capacity, self.associativity
            )

        # A hit stalls once (avoidance); an errant miss flushes, replays
        # and teaches the table the tag (sensing + recovery).
        hit = resident_insert(codes, inserts) >= 0
        flush = max_err & ~hit
        novel = first_of_code(codes, flush)
        stalls = int(hit.sum())
        predicted = int((hit & max_err).sum())
        flushes = int(flush.sum())
        first_occurrences = int(novel.sum())

        stall_penalty = self.pipeline.stall_penalty
        flush_penalty = self.pipeline.flush_penalty
        sink = audit.get()
        if sink is not None:
            rec = sink.begin_scheme_run(self.name, trace)
            cycles = np.flatnonzero(hit | flush)
            hits = hit[cycles]
            hit_decision = np.where(
                max_err[cycles], audit.DEC_PREDICT_HIT, audit.DEC_FALSE_POSITIVE
            )
            rec.decisions(
                cycles,
                trace.err_class[cycles],
                np.where(hits, hit_decision, audit.DEC_DETECT),
                stall=hits,
                penalty=np.where(hits, stall_penalty, flush_penalty),
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
            false_positives=stalls - predicted,
            stalls=stalls,
            flushes=flushes,
            unique_instances=first_occurrences,
            extra={
                "first_occurrences": first_occurrences,
                "capacity_misses": flushes - first_occurrences,
                "table_unique_insertions": insertions,
            },
        ))
