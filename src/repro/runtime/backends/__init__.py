"""One run path: ``--jobs`` picks serial or process pool here, and only here.

``jobs == 1`` runs :func:`repro.runtime.executor.run_many` in this
process: the bit-identical reference.  Anything wider runs
:func:`repro.runtime.backends.procpool.run_fleet`, the local process
pool that also contains killed or out-of-memory workers.  Both paths
build their experiment context and resolver the same way
(:func:`~repro.runtime.parallel.experiment_context`,
:func:`~repro.runtime.parallel.experiment_resolver`), and both list
outcomes in submission order, so a run's report is the same bytes
whichever path produced it.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs
from repro.runtime import executor
from repro.runtime.backends import procpool
from repro.runtime.checkpoint import StoreStats
from repro.runtime.executor import RunOutcome, RunReport
from repro.runtime.log import get_logger
from repro.runtime.parallel import WorkerSpec, experiment_context, experiment_resolver

logger = get_logger("backends")


def run_experiments(
    experiment_ids: Sequence[str],
    spec: WorkerSpec,
    jobs: int,
    on_outcome: Callable[[RunOutcome], None] | None = None,
) -> tuple[RunReport, StoreStats]:
    """Run a batch serially (``jobs == 1``) or on a process pool.

    Returns the report, outcomes in submission order, plus the store
    statistics of every process that ran experiments.  ``on_outcome``
    fires in submission order too.
    """
    backend = "inproc" if jobs == 1 else "procpool"
    logger.info("running %d experiment(s) on the %s backend", len(experiment_ids), backend)
    obs.emit("run_start", backend=backend, jobs=jobs, experiments=len(experiment_ids))
    for eid in experiment_ids:
        obs.emit("scheduled", experiment=eid)
    if jobs > 1:
        return procpool.run_fleet(experiment_ids, spec, jobs, on_outcome)

    ctx = experiment_context(spec, claims=False)
    resolve = experiment_resolver(spec)

    def started(experiment_id: str) -> Callable:
        obs.emit("started", experiment=experiment_id, worker="inproc")
        return resolve(experiment_id)

    def finished(outcome: RunOutcome) -> None:
        obs.emit(
            "result",
            experiment=outcome.experiment_id,
            worker="inproc",
            status=outcome.status,
            elapsed_s=round(outcome.elapsed_s, 3),
        )
        if on_outcome is not None:
            on_outcome(outcome)

    report = executor.run_many(
        experiment_ids,
        ctx,
        retries=spec.retries,
        timeout_s=spec.timeout_s,
        resolve=started,
        on_outcome=finished,
    )
    return report, ctx.store.stats if ctx.store is not None else StoreStats()


__all__ = ["run_experiments"]
