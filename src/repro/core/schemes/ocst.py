"""OCST: Online Clock Skew Tuning (Ye, Yuan & Xu, ICCAD'11).

OCST observes timing errors per circuit block over a tuning interval
(100 000 cycles in the paper) with Razor-style detection and recovery;
when a block's error frequency crosses a threshold, its clock skew is
tuned to grant the block extra time, avoiding future errors at the cost
of a slightly longer effective period.  Like Razor it relies on inserted
buffers against minimum timing violations, so it only reacts to maximum
violations.

The skew is constant within an interval, so :meth:`OcstScheme.simulate`
settles each interval with one comparison of its errant cycles' late
arrivals against the tuned period, then takes one step of the tuning
state machine (:class:`SkewTuner`).  The per-cycle loop it replaces is
kept as the exact reference, :func:`repro.qa.scheme_reference.ocst_reference`.
"""

from __future__ import annotations

import numpy as np

from repro.arch.pipeline import DEFAULT_PIPELINE, PipelineConfig
from repro.core.scheme_sim import ErrorTrace
from repro.core.schemes.base import Scheme, SchemeResult, record_result
from repro.obs import audit


class OcstScheme(Scheme):
    """Interval-based clock-skew tuning around a Razor-style EDAC core."""

    name = "OCST"

    def __init__(
        self,
        pipeline: PipelineConfig = DEFAULT_PIPELINE,
        interval: int = 5_000,
        skew_step_fraction: float = 0.03,
        max_skew_fraction: float = 0.12,
        error_rate_threshold: float = 1e-4,
    ) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        if skew_step_fraction <= 0 or max_skew_fraction <= 0:
            raise ValueError("skew fractions must be positive")
        self.pipeline = pipeline
        self.interval = interval
        self.skew_step_fraction = skew_step_fraction
        self.max_skew_fraction = max_skew_fraction
        self.error_rate_threshold = error_rate_threshold

    def simulate(self, trace: ErrorTrace) -> SchemeResult:
        n = len(trace)
        period = trace.clock_period
        interval = self.interval
        flush_penalty = self.pipeline.flush_penalty
        tuner = SkewTuner(self, period)

        # Within an interval the tuned period is fixed: an errant cycle
        # whose late arrival still exceeds it is flushed and replayed
        # Razor-style, the others are avoided by the granted skew.
        errant = np.flatnonzero(trace.max_err)
        errant_late = trace.t_late[errant]
        starts = range(0, n, interval)
        bounds = errant.searchsorted([*starts, n]).tolist()
        flush = np.zeros(len(errant), dtype=bool)
        effective = []  # the tuned period of each interval
        for k, start in enumerate(starts):
            effective.append(period + tuner.skew)
            lo, hi = bounds[k], bounds[k + 1]
            flush[lo:hi] = errant_late[lo:hi] > effective[-1]
            if start + interval <= n:  # a trailing partial interval never retunes
                tuner.close_interval(int(np.count_nonzero(flush[lo:hi])))
        flushes = int(np.count_nonzero(flush))
        avoided = len(errant) - flushes

        # Each cycle adds its tuned period, and a flush adds the penalty
        # right after its cycle: one sequential cumsum sums them in the
        # per-cycle order, so the float bits match a cycle-by-cycle sum.
        period_of = np.repeat(effective, interval)[:n]
        flushed = errant[flush]
        steps = np.insert(period_of, flushed + 1, flush_penalty * period_of[flushed])
        elapsed_ps = float(np.cumsum(steps)[-1]) if n else 0.0
        average_period = elapsed_ps / max(n + flushes * flush_penalty, 1)

        sink = audit.get()
        if sink is not None:
            rec = sink.begin_scheme_run(self.name, trace)
            rec.decisions(
                errant,
                trace.err_class[errant],
                np.where(flush, audit.DEC_DETECT, audit.DEC_AVOID),
                penalty=np.where(flush, flush_penalty, 0),
            )
            rec.finish(effective_clock_period=average_period)
        return record_result(SchemeResult(
            scheme=self.name,
            benchmark=trace.benchmark,
            base_cycles=n,
            penalty_cycles=flushes * flush_penalty,
            effective_clock_period=average_period,
            errors_total=flushes + avoided,
            errors_predicted=avoided,
            errors_missed=flushes,
            flushes=flushes,
            extra={"final_skew_ps": tuner.skew},
        ))


class SkewTuner:
    """OCST's tuning state machine over one run, stepped once at the end
    of every full interval with that interval's flushed errors."""

    def __init__(self, scheme: OcstScheme, period: float) -> None:
        self.interval = scheme.interval
        self.threshold = scheme.error_rate_threshold
        self.step = scheme.skew_step_fraction * period
        self.max_skew = scheme.max_skew_fraction * period
        self.skew = 0.0
        self.climb_baseline_rate: float | None = None
        self.frozen_intervals = 0

    def close_interval(self, errors: int) -> None:
        rate = errors / self.interval
        if self.frozen_intervals > 0:
            self.frozen_intervals -= 1
        elif rate > self.threshold and self.skew < self.max_skew:
            # Climb one step per interval towards the skew bound.
            if self.climb_baseline_rate is None:
                self.climb_baseline_rate = rate
            self.skew = min(self.skew + self.step, self.max_skew)
        elif self.skew >= self.max_skew and self.climb_baseline_rate is not None:
            # The climb is exhausted: keep the skew only if it is
            # actually buying error reduction.  Choke-path errors sit far
            # beyond any tunable skew range, and paying the stretched
            # period for nothing is strictly worse.
            if rate > 0.95 * self.climb_baseline_rate:
                self.skew = 0.0
                self.frozen_intervals = 8
            self.climb_baseline_rate = None
        elif errors == 0 and self.skew > 0.0:
            # Tune back towards nominal when the block runs clean.
            self.skew = max(self.skew - self.step, 0.0)
            self.climb_baseline_rate = None
