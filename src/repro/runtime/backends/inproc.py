"""The in-process serial backend: the reference the others must match.

Runs every experiment in this process through the supervised serial
executor: the CLI's ``--jobs 1`` path.  No fan-out, no claims — which
makes it the ground truth the ``procpool`` backend is differentially
tested against.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import obs
from repro.runtime.backends.base import ExecutorBackend
from repro.runtime.checkpoint import CheckpointStore, StoreStats
from repro.runtime.executor import RunOutcome, RunReport, run_many
from repro.runtime.parallel import WorkerSpec


class InprocBackend(ExecutorBackend):
    name = "inproc"

    def run(
        self,
        experiment_ids: Sequence[str],
        spec: WorkerSpec,
        jobs: int | None = None,
        on_outcome: Callable[[RunOutcome], None] | None = None,
        crash_retries: int = 1,
    ) -> tuple[RunReport, StoreStats]:
        from repro.experiments.runner import ExperimentContext

        store = None
        if spec.checkpoint_dir:
            store = CheckpointStore(
                spec.checkpoint_dir,
                resume=spec.resume,
                claim_stale_s=spec.claim_stale_s,
                claim_poll_s=spec.claim_poll_s,
            )
        ctx = ExperimentContext(spec.config, store=store)
        for eid in experiment_ids:
            obs.emit("scheduled", experiment=eid)
        resolve = self._resolve(spec)

        def started(experiment_id: str) -> Callable:
            obs.emit("started", experiment=experiment_id, worker="inproc")
            return resolve(experiment_id)

        def finished(outcome: RunOutcome) -> None:
            obs.emit(
                "result",
                experiment=outcome.experiment_id,
                worker="inproc",
                status="ok" if outcome.ok else outcome.failure.kind,
                elapsed_s=round(outcome.elapsed_s, 3),
            )
            if on_outcome is not None:
                on_outcome(outcome)

        report = run_many(
            experiment_ids,
            ctx,
            retries=spec.retries,
            timeout_s=spec.timeout_s,
            retry_backoff_s=spec.retry_backoff_s,
            resolve=started,
            on_outcome=finished,
        )
        return report, store.stats if store is not None else StoreStats()

    @staticmethod
    def _resolve(spec: WorkerSpec) -> Callable[[str], Callable]:
        """Chaos interposition for the serial path.

        ``chaos_fail`` and ``chaos_slow`` are honoured; ``chaos_kill``
        is not — an ``os._exit`` body would take the *coordinating*
        process down, which is why the CLI refuses ``--chaos-kill``
        below ``--jobs 2``.
        """
        from repro.experiments.registry import get_experiment
        from repro.runtime.chaos import chaos_resolve, slow_run

        resolve: Callable[[str], Callable] = get_experiment
        if spec.chaos_fail:
            resolve = chaos_resolve(set(spec.chaos_fail), resolve)
        if spec.chaos_slow:
            slow = dict(spec.chaos_slow)
            base = resolve

            def resolve(experiment_id: str) -> Callable:
                body = base(experiment_id)
                if experiment_id in slow:
                    body = slow_run(slow[experiment_id], body)
                return body

        return resolve
