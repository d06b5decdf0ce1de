"""The process-pool backend: local fan-out behind the backend interface.

A thin adapter over :func:`repro.runtime.parallel.run_fleet` — the
prefetch + fan-out + crash-containment machinery is unchanged; the
backend interface just makes it swappable with ``inproc``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs
from repro.runtime.backends.base import ExecutorBackend
from repro.runtime.checkpoint import StoreStats
from repro.runtime.executor import RunOutcome, RunReport
from repro.runtime.parallel import WorkerSpec, run_fleet


class ProcpoolBackend(ExecutorBackend):
    name = "procpool"

    def run(
        self,
        experiment_ids: Sequence[str],
        spec: WorkerSpec,
        jobs: int | None = None,
        on_outcome: Callable[[RunOutcome], None] | None = None,
        crash_retries: int = 1,
    ) -> tuple[RunReport, StoreStats]:
        for eid in experiment_ids:
            obs.emit("scheduled", experiment=eid)
        return run_fleet(
            experiment_ids,
            spec,
            jobs=jobs,
            on_outcome=on_outcome,
            crash_retries=crash_retries,
        )
