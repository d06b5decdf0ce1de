"""The process-pool run: prefetch shared artefacts, then fan out.

:func:`run_fleet` is what ``--jobs 2`` and wider run.  It calls the two
halves in :mod:`repro.runtime.parallel` and the shared-memory publish
in :mod:`repro.experiments.runner` through their module attributes, so
a profiler that rebinds those names sees every call.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from typing import Callable, Sequence

from repro import obs
from repro.runtime import parallel
from repro.runtime.checkpoint import StoreStats
from repro.runtime.executor import RunOutcome, RunReport
from repro.runtime.parallel import WorkerSpec, logger


def run_fleet(
    experiment_ids: Sequence[str],
    spec: WorkerSpec,
    jobs: int,
    on_outcome: Callable[[RunOutcome], None] | None = None,
) -> tuple[RunReport, StoreStats]:
    """Prefetch shared artefacts, then fan the experiments out.

    The parent fabricates the run's chip populations once, publishes
    them to shared-memory segments, and ships only the catalog inside
    the :class:`WorkerSpec`: workers attach zero-copy views instead of
    pickling or recomputing whole chips.  The parent generates no
    instruction trace: each error-trace worker generates its own.
    Publishing is best-effort: on any failure the workers compute their
    chips through the store.

    Workers rendezvous through a checkpoint store.  Without
    ``spec.checkpoint_dir`` the fleet makes an ephemeral one and
    removes it when the run ends.
    """
    from repro.experiments import runner

    obs.gauge("parallel.jobs", jobs)
    stats = StoreStats()
    ephemeral_dir = None
    if not spec.checkpoint_dir:
        ephemeral_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
        spec = dataclasses.replace(spec, checkpoint_dir=ephemeral_dir)
    publisher = None
    try:
        try:
            catalog, publisher = runner.build_shared_artefacts(spec.config, experiment_ids)
        except Exception as exc:
            logger.warning("shared-memory publish failed (%s); workers compute chips locally", exc)
        else:
            if catalog is not None and len(catalog):
                spec = dataclasses.replace(spec, shm_catalog=catalog)
        stats.merge(parallel.prefetch_artefacts(spec, experiment_ids, jobs))
        with obs.span("parallel.fanout", experiments=len(experiment_ids), jobs=jobs):
            report, run_stats = parallel.run_many_parallel(experiment_ids, spec, jobs, on_outcome)
    finally:
        if publisher is not None:
            publisher.unlink()
        if ephemeral_dir is not None:
            shutil.rmtree(ephemeral_dir, ignore_errors=True)
    stats.merge(run_stats)
    return report, stats
