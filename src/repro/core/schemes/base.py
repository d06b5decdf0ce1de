"""Common scheme interface and the result record every scheme returns."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro import obs
from repro.core.scheme_sim import ErrorTrace


@dataclass
class SchemeResult:
    """Outcome of replaying one error trace through one EDAC scheme.

    * ``base_cycles``: useful-work cycles of the trace.
    * ``penalty_cycles``: stall + recovery cycles added by the scheme.
    * ``effective_clock_period``: the per-cycle period the scheme runs at
      (Razor/DCS/Trident keep the nominal period; HFG stretches it; for
      OCST this is the time-averaged tuned period).
    * ``errors_total``: error occurrences the scheme is responsible for
      (max-only for Razor/HFG/OCST/DCS; all classes for Trident).
    * ``errors_predicted`` / ``errors_missed``: of those, how many the
      scheme's table foresaw (avoided with stalls) vs detected late
      (flush + replay).
    * ``false_positives``: predicted-but-clean cycles (wasted stalls).
    * ``unique_instances``: distinct tags/EIDs the scheme learned.
    """

    scheme: str
    benchmark: str
    base_cycles: int
    penalty_cycles: int
    effective_clock_period: float
    errors_total: int = 0
    errors_predicted: int = 0
    errors_missed: int = 0
    false_positives: int = 0
    stalls: int = 0
    flushes: int = 0
    unique_instances: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.base_cycles + self.penalty_cycles

    @property
    def execution_time_ps(self) -> float:
        return self.total_cycles * self.effective_clock_period

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of actual error occurrences the scheme predicted."""
        if self.errors_total == 0:
            return 1.0
        return self.errors_predicted / self.errors_total


def record_result(result: SchemeResult) -> SchemeResult:
    """Emit a scheme run's domain counters and pass the result through.

    Every scheme's ``simulate`` returns through here so the telemetry
    layer sees ``scheme.errors`` / ``scheme.rollbacks`` /
    ``scheme.replays`` (and friends) labelled by scheme name.  Free when
    telemetry is off: one ``enabled()`` check, no allocation.  The
    counters are schedule-dependent (serial runs memoise scheme sweeps
    across experiments; parallel workers re-simulate per task), so
    ``metrics.json`` carries them but the determinism view leaves them
    out.
    """
    if not obs.enabled():
        return result
    scheme = result.scheme
    obs.inc("scheme.runs", scheme=scheme)
    obs.inc("scheme.errors", result.errors_total, scheme=scheme)
    obs.inc("scheme.rollbacks", result.flushes, scheme=scheme)
    obs.inc("scheme.replays", result.errors_missed, scheme=scheme)
    obs.inc("scheme.stalls", result.stalls, scheme=scheme)
    obs.inc("scheme.predicted", result.errors_predicted, scheme=scheme)
    obs.inc("scheme.false_positives", result.false_positives, scheme=scheme)
    obs.inc("scheme.penalty_cycles", result.penalty_cycles, scheme=scheme)
    for key, value in result.extra.items():
        if isinstance(value, int) and not isinstance(value, bool):
            obs.inc(f"scheme.{key}", value, scheme=scheme)
    return result


class Scheme(abc.ABC):
    """A timing-error detection/correction/avoidance scheme."""

    #: Human-readable scheme name (used in reports and figures).
    name: str = "scheme"

    @abc.abstractmethod
    def simulate(self, trace: ErrorTrace) -> SchemeResult:
        """Replay ``trace`` and account penalties/energy events."""
