"""Timing substrate: the paper's "in-house STA tool".

* :mod:`repro.timing.levelize` -- levelised circuit form, one packed
  gate step per logic level, consumed by the vectorised engines,
* :mod:`repro.timing.logic_eval` -- batch boolean evaluation,
* :mod:`repro.timing.dta` -- dynamic timing analysis: per-cycle sensitised
  max/min transition arrival times for vector streams and independent
  vector pairs,
* :mod:`repro.timing.sta` -- static longest/shortest path analysis,
* :mod:`repro.timing.paths` -- path extraction and trace-back,
* :mod:`repro.timing.choke` -- choke-point analytics (CDL, CGL, choke
  buffers).
"""

from repro.timing.levelize import LevelizedCircuit, levelize
from repro.timing.logic_eval import evaluate_logic
from repro.timing.dta import (
    CycleTimings,
    cycle_timings,
    pair_arrivals,
    single_transition_arrivals,
)
from repro.timing.sta import (
    arrival_times,
    critical_path_delay,
    output_arrivals,
    shortest_path_delay,
)
from repro.timing.paths import Path, trace_critical_path, trace_dynamic_path
from repro.timing.choke import (
    CDL_CATEGORIES,
    ChokeEvent,
    analyze_choke_event,
    classify_cdl,
)
from repro.timing.report import timing_report

__all__ = [
    "CDL_CATEGORIES",
    "ChokeEvent",
    "CycleTimings",
    "LevelizedCircuit",
    "Path",
    "analyze_choke_event",
    "arrival_times",
    "classify_cdl",
    "critical_path_delay",
    "cycle_timings",
    "evaluate_logic",
    "levelize",
    "output_arrivals",
    "pair_arrivals",
    "shortest_path_delay",
    "single_transition_arrivals",
    "timing_report",
    "trace_critical_path",
    "trace_dynamic_path",
]
