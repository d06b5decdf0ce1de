"""The executor-backend interface every fleet implementation satisfies.

A backend turns an ordered list of experiment ids plus a
:class:`~repro.runtime.parallel.WorkerSpec` into a
:class:`~repro.runtime.executor.RunReport` whose outcomes are listed in
submission order — the contract that makes a run's report bit-identical
whichever backend produced it.  Backends differ only in *where* the
work happens (this process or a local process pool) and in which
failure modes they must contain; they may never differ in results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.runtime.checkpoint import StoreStats
from repro.runtime.executor import RunOutcome, RunReport
from repro.runtime.parallel import WorkerSpec


class ExecutorBackend(ABC):
    """One way of executing a batch of supervised experiments.

    Contract (enforced by the QA ``*_vs_serial`` oracles and the CI
    ``cmp`` smokes):

    * outcomes appear in the report in **submission order**, and
      ``on_outcome`` fires in submission order too;
    * a successful run's per-experiment results are **bit-identical**
      across backends for the same config/seed;
    * any single-worker failure degrades to per-experiment
      :class:`FailureRecord`s — never a dead or hung run.
    """

    #: the label run events and logs carry
    name: str = "?"

    @abstractmethod
    def run(
        self,
        experiment_ids: Sequence[str],
        spec: WorkerSpec,
        jobs: int | None = None,
        on_outcome: Callable[[RunOutcome], None] | None = None,
        crash_retries: int = 1,
    ) -> tuple[RunReport, StoreStats]:
        """Execute the batch; report in submission order plus store stats."""

