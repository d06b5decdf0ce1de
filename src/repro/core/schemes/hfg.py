"""HFG: Hierarchically Focused Guardbanding (Rahimi et al., DATE'13).

HFG proactively prevents timing errors by adaptively widening the timing
guardband from in-situ PVTA sensor data.  No recovery penalties are ever
paid, but the widened guardband stretches every cycle: even a handful of
potential error cycles inflates the whole execution (§3.5.4's explanation
of HFG's poor performance).

Behavioural model: the guardbanded period is the worst observed
sensitised path delay, plus a sensor margin, further widened by the
dynamic-PVT factor the guardband must carry to stay error-free across
supply droop and temperature.  That droop factor is computed from the
same trans-regional delay model the rest of the stack uses -- and it is
exactly the paper's point about HFG at NTC: near threshold, a modest
voltage droop inflates delay (and therefore the guardband) dramatically,
while at STC the same droop costs little.
"""

from __future__ import annotations

import numpy as np

from repro.arch.pipeline import DEFAULT_PIPELINE, PipelineConfig
from repro.core.scheme_sim import ErrorTrace
from repro.core.schemes.base import Scheme, SchemeResult, record_result
from repro.obs import audit
from repro.pv.delaymodel import VTH_NOMINAL, delay_factor


def pvta_guardband_factor(
    vdd: float, droop: float = 0.08, aging_delta_vth: float = 0.04
) -> float:
    """Delay inflation the guardband must absorb for dynamic V/T/A.

    ``droop`` is the worst-case supply dip the band covers;
    ``aging_delta_vth`` the end-of-life NBTI/PBTI threshold shift (HFG
    explicitly guards against aging).  Near threshold both effects are
    hugely amplified by the same mechanism that amplifies process
    variation, so the factor is large at NTC and mild at STC.
    """
    if not 0 <= droop < 1:
        raise ValueError("droop must be in [0, 1)")
    if aging_delta_vth < 0:
        raise ValueError("aging_delta_vth must be non-negative")
    nominal = delay_factor(vdd, VTH_NOMINAL)
    guarded = delay_factor(vdd * (1.0 - droop), VTH_NOMINAL + aging_delta_vth)
    return float(guarded / nominal)


class HfgScheme(Scheme):
    """Adaptive guardbanding: zero penalties, stretched clock."""

    name = "HFG"

    def __init__(
        self,
        pipeline: PipelineConfig = DEFAULT_PIPELINE,
        sensor_margin: float = 0.05,
        supply_droop: float = 0.08,
        aging_delta_vth: float = 0.04,
    ) -> None:
        if sensor_margin < 0:
            raise ValueError("sensor_margin must be non-negative")
        self.pipeline = pipeline
        self.sensor_margin = sensor_margin
        self.supply_droop = supply_droop
        self.aging_delta_vth = aging_delta_vth

    def simulate(self, trace: ErrorTrace) -> SchemeResult:
        worst = float(np.max(trace.t_late)) if len(trace) else 0.0
        pvta = pvta_guardband_factor(
            trace.corner_vdd, self.supply_droop, self.aging_delta_vth
        )
        period = max(
            trace.clock_period, worst * (1.0 + self.sensor_margin) * pvta
        )
        avoided = int(trace.max_err.sum())
        sink = audit.get()
        if sink is not None:
            rec = sink.begin_scheme_run(self.name, trace)
            cycles = np.flatnonzero(trace.max_err)
            rec.decisions(cycles, trace.err_class[cycles], audit.DEC_AVOID)
            rec.finish(effective_clock_period=period)
        return record_result(SchemeResult(
            scheme=self.name,
            benchmark=trace.benchmark,
            base_cycles=len(trace),
            penalty_cycles=0,
            effective_clock_period=period,
            errors_total=avoided,
            errors_predicted=avoided,  # all errors pre-empted by guardband
            errors_missed=0,
            extra={"guardband_ratio": period / trace.clock_period},
        ))
