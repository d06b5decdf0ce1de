"""Razor: the reactive double-sampling baseline (Ernst et al., MICRO'03).

Razor detects a maximum timing violation with a shadow latch at each
pipestage boundary and recovers with a pipeline flush plus instruction
replay -- every occurrence pays the full recovery penalty because Razor
has no prediction mechanism.  Minimum timing violations are assumed
handled by buffer insertion, so Razor is blind to them (the blindness
Chapter 4 exposes: choke buffers defeat the insertion at NTC).
"""

from __future__ import annotations

import numpy as np

from repro.arch.pipeline import DEFAULT_PIPELINE, PipelineConfig
from repro.core.scheme_sim import ErrorTrace
from repro.core.schemes.base import Scheme, SchemeResult, record_result
from repro.obs import audit


class RazorScheme(Scheme):
    """Detect-and-recover on every maximum timing violation."""

    name = "Razor"

    def __init__(self, pipeline: PipelineConfig = DEFAULT_PIPELINE) -> None:
        self.pipeline = pipeline

    def simulate(self, trace: ErrorTrace) -> SchemeResult:
        errors = int(trace.max_err.sum())
        penalty = errors * self.pipeline.flush_penalty
        sink = audit.get()
        if sink is not None:
            rec = sink.begin_scheme_run(self.name, trace)
            cycles = np.flatnonzero(trace.max_err)
            rec.decisions(cycles, trace.err_class[cycles], audit.DEC_DETECT,
                          penalty=self.pipeline.flush_penalty)
            rec.finish(effective_clock_period=trace.clock_period)
        return record_result(SchemeResult(
            scheme=self.name,
            benchmark=trace.benchmark,
            base_cycles=len(trace),
            penalty_cycles=penalty,
            effective_clock_period=trace.clock_period,
            errors_total=errors,
            errors_predicted=0,
            errors_missed=errors,
            flushes=errors,
        ))
