"""Clock-margin shmoo sweeps over fabricated chip populations.

A shmoo plot answers: *at which clock margin does each chip of a batch
run clean?*  Because per-cycle sensitised arrival times do not depend on
the clock, one dynamic-timing pass per chip supports every margin point
-- the sweep just moves the setup/hold thresholds over the cached
arrivals.  This quantifies the paper's batch-variation claim and the
guardband a static scheme needs to cover a population (versus the small
per-chip tables DCS/Trident invest in instead).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.trace import InstructionTrace
from repro.circuits.ex_stage import ExStage
from repro.timing.dta import DEFAULT_CHUNK


@dataclass
class ShmooResult:
    """Outcome of one shmoo sweep."""

    margins: np.ndarray  # clock margins over the PV-free critical path
    chip_seeds: tuple[int, ...]
    max_error_rates: np.ndarray  # (chips, margins) setup-violation rates
    min_error_rates: np.ndarray  # (chips, margins) hold-violation rates
    clean_threshold: float

    @property
    def error_rates(self) -> np.ndarray:
        """Combined per-(chip, margin) error rate."""
        return self.max_error_rates + self.min_error_rates

    def yield_curve(self) -> np.ndarray:
        """Fraction of chips whose error rate is below the clean threshold,
        per margin point."""
        clean = self.error_rates <= self.clean_threshold
        return clean.mean(axis=0)

    def margin_for_yield(self, target: float = 1.0) -> float | None:
        """Smallest swept margin achieving at least ``target`` yield."""
        curve = self.yield_curve()
        for margin, value in zip(self.margins, curve):
            if value >= target:
                return float(margin)
        return None

    def render(self) -> str:
        """ASCII shmoo: one row per chip, '.' clean / 'x' erring."""
        lines = ["shmoo (rows = chips, cols = clock margins; '.' clean, 'x' errors)"]
        header = "        " + " ".join(f"{m:5.2f}" for m in self.margins)
        lines.append(header)
        clean = self.error_rates <= self.clean_threshold
        for row, seed in enumerate(self.chip_seeds):
            cells = " ".join(
                "    ." if clean[row, col] else "    x"
                for col in range(len(self.margins))
            )
            lines.append(f"chip{seed:3d} {cells}")
        lines.append(
            "yield   " + " ".join(f"{v:5.2f}" for v in self.yield_curve())
        )
        return "\n".join(lines)


def shmoo_sweep(
    stage: ExStage,
    trace: InstructionTrace,
    chip_seeds,
    margins=None,
    clean_threshold: float = 0.0,
    hold_fraction: float | None = None,
    chunk: int = DEFAULT_CHUNK,
) -> ShmooResult:
    """Sweep clock margins over a chip population.

    ``margins`` are fractions over the PV-free critical path (default
    0.00 .. 0.60).  The hold constraint stays at the stage's *designed*
    absolute value regardless of margin -- hold violations are
    clock-frequency-independent in silicon, and the hold-fix pads were
    planned against the design-time constraint.  Pass ``hold_fraction``
    to override with a fixed fraction of each swept period instead
    (modelling a detection window that scales with the clock).
    """
    if margins is None:
        margins = np.arange(0.0, 0.61, 0.1)
    margins = np.asarray(margins, dtype=float)
    chip_seeds = tuple(int(seed) for seed in chip_seeds)
    if not chip_seeds:
        raise ValueError("need at least one chip seed")

    critical = stage.nominal_critical_delay
    inputs = trace.encode_inputs(stage.alu)

    max_rates = np.zeros((len(chip_seeds), len(margins)))
    min_rates = np.zeros((len(chip_seeds), len(margins)))
    for row, seed in enumerate(chip_seeds):
        chip = stage.fabricate(seed=seed)
        timings = stage.timings(chip, inputs, chunk=chunk)
        for col, margin in enumerate(margins):
            period = critical * (1.0 + margin)
            hold = (
                hold_fraction * period
                if hold_fraction is not None
                else stage.hold_constraint
            )
            max_rates[row, col] = float(timings.max_violations(period).mean())
            min_rates[row, col] = float(timings.min_violations(hold).mean())

    return ShmooResult(
        margins=margins,
        chip_seeds=chip_seeds,
        max_error_rates=max_rates,
        min_error_rates=min_rates,
        clean_threshold=clean_threshold,
    )
