"""Process-pool fan-out for artefacts and whole experiments.

The evaluation is embarrassingly parallel on two axes — chip
fabrication across (seed, corner) and error-trace construction across
(chip, benchmark) — and at the top level the 22 registered experiments
are independent once those artefacts exist.  This module fans all three
out across ``ProcessPoolExecutor`` workers while keeping every
guarantee the serial runtime makes:

* **Determinism.**  Workers only ever *compute* artefacts that are pure
  functions of (config, key) and publish them through the shared
  :class:`~repro.runtime.checkpoint.CheckpointStore` (atomic writes +
  claim files, so concurrent computation of one key is suppressed and a
  lost race is harmless).  Outcomes are merged in submission order, so
  a parallel run's report is bit-identical to a serial run's, modulo
  wall-clock fields.
* **Fault isolation.**  Each experiment runs under
  :func:`~repro.runtime.executor.run_supervised` *inside* its worker,
  so exceptions, retries, and timeouts behave exactly as in a serial
  run — and because the watchdog clock starts inside the worker, time
  spent queued behind other experiments never counts against
  ``--timeout-s``.  A worker that dies outright (SIGKILL, OOM,
  ``--chaos-kill``) breaks the pool; the orchestrator rebuilds the
  pool, re-runs tasks that never started, gives possibly-innocent
  started tasks ``crash_retries`` more chances, and converts repeat
  offenders into ``kind="crash"`` failure records — one murdered
  worker degrades to one failed experiment, never a dead run.

The public entry point is :func:`run_fleet` (prefetch + fan-out), with
:func:`prefetch_artefacts` and :func:`run_many_parallel` usable
separately.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro import obs
from repro.runtime.checkpoint import CheckpointStore, StoreStats, config_fingerprint
from repro.runtime.executor import FailureRecord, RunOutcome, RunReport
from repro.runtime.log import get_logger

logger = get_logger("parallel")


def default_jobs() -> int:
    """The CLI's ``--jobs`` default: one worker per usable CPU.

    Usable means this process's CPU affinity where the platform has it,
    so a pinned run (``taskset``, a container's cpuset) does not
    oversubscribe its cores.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _mp_context():
    # fork keeps worker start-up cheap (no numpy/scipy re-import) and is
    # available everywhere the tier-1 suite runs; fall back gracefully.
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild its runtime.

    Must stay picklable: plain values only.  The chaos fields exist so
    fault injection crosses the process boundary — ``--chaos-fail`` (and
    friends) must misbehave *inside* the worker, not in the parent.
    """

    config: Any  # ExperimentConfig (a frozen dataclass of plain values)
    checkpoint_dir: str | None = None
    resume: bool = True
    retries: int = 0
    timeout_s: float | None = None
    chaos_fail: tuple[str, ...] = ()
    chaos_kill: tuple[str, ...] = ()
    chaos_slow: tuple[tuple[str, float], ...] = ()
    verbose: int = 0
    #: parent-managed scratch dir for started-task markers
    scratch_dir: str | None = None
    claim_stale_s: float = 600.0
    claim_poll_s: float = 0.05
    #: which telemetry channels workers record, and their shard directory
    telemetry: obs.TelemetrySpec = obs.TelemetrySpec()
    #: shared-memory catalog of population artefacts (set by run_fleet;
    #: workers that cannot attach fall back to local computation)
    shm_catalog: Any = None


# ----------------------------------------------------------------------
# worker side (top-level functions so the pool can pickle them)
# ----------------------------------------------------------------------

def _worker_context(spec: WorkerSpec):
    from repro.experiments.runner import ExperimentContext
    from repro.runtime.log import configure

    configure(spec.verbose)
    obs.ensure_worker(spec.telemetry)
    store = None
    if spec.checkpoint_dir:
        store = CheckpointStore(
            spec.checkpoint_dir,
            resume=spec.resume,
            claims=True,
            claim_stale_s=spec.claim_stale_s,
            claim_poll_s=spec.claim_poll_s,
        )
    shared = None
    if spec.shm_catalog is not None:
        from repro.runtime.shm import ShmReader

        # Attach lazily per array; a worker that cannot see the parent's
        # segments (parent gone, /dev/shm full) computes locally instead.
        shared = ShmReader(spec.shm_catalog)
    return ExperimentContext(spec.config, store=store, shared=shared)


def _worker_resolve(spec: WorkerSpec) -> Callable[[str], Callable]:
    from repro.experiments.registry import get_experiment
    from repro.runtime.chaos import chaos_resolve, killed_run, slow_run

    resolve: Callable[[str], Callable] = get_experiment
    if spec.chaos_fail:
        resolve = chaos_resolve(set(spec.chaos_fail), resolve)
    if spec.chaos_kill or spec.chaos_slow:
        kill = set(spec.chaos_kill)
        slow = dict(spec.chaos_slow)
        base = resolve

        def resolve(experiment_id: str) -> Callable:
            if experiment_id in kill:
                logger.info("chaos: killing worker running %s", experiment_id)
                return killed_run()
            body = base(experiment_id)
            if experiment_id in slow:
                body = slow_run(slow[experiment_id], body)
            return body

    return resolve


def _mark_started(spec: WorkerSpec, experiment_id: str) -> None:
    if not spec.scratch_dir:
        return
    try:
        Path(spec.scratch_dir, f"started-{experiment_id}").touch()
    except OSError:
        pass  # blame tracking degrades, containment still works


def _record_queue_wait(submitted_ts: float | None) -> None:
    """Submission-to-start latency (the queue-vs-run split in the trace).

    Valid because fork workers share the parent's ``perf_counter``
    timeline (CLOCK_MONOTONIC is system-wide on the platforms the fork
    path runs on).
    """
    if submitted_ts is not None:
        obs.observe(
            "worker.queue_wait_s", max(0.0, time.perf_counter() - submitted_ts)
        )


def _run_experiment_task(
    spec: WorkerSpec, experiment_id: str, submitted_ts: float | None = None
) -> tuple[RunOutcome, dict[str, int] | None]:
    """Run one supervised experiment inside a worker process.

    The watchdog clock starts *here* — inside the worker — so time the
    task spent queued behind other work never counts against the
    ``--timeout-s`` budget.
    """
    from repro.runtime.executor import run_supervised

    _mark_started(spec, experiment_id)
    ctx = _worker_context(spec)
    _record_queue_wait(submitted_ts)
    obs.emit("started", experiment=experiment_id, worker=f"pid:{os.getpid()}")
    try:
        with obs.span("worker.task", experiment=experiment_id):
            resolve = _worker_resolve(spec)
            outcome = run_supervised(
                experiment_id,
                resolve(experiment_id),
                ctx,
                retries=spec.retries,
                timeout_s=spec.timeout_s,
            )
        stats = ctx.store.stats.as_dict() if ctx.store is not None else None
        return outcome, stats
    finally:
        obs.flush_worker()


def _prefetch_task(
    spec: WorkerSpec, kind: str, part: tuple, submitted_ts: float | None = None
) -> dict[str, int] | None:
    """Materialise one artefact into the shared store."""
    ctx = _worker_context(spec)
    _record_queue_wait(submitted_ts)
    try:
        with obs.span("worker.prefetch", kind=kind, part=repr(part)):
            obs.inc("prefetch.tasks")
            if kind == "chip":
                chip_kind, seed, corner, buffered = part
                if chip_kind == "alu":
                    ctx.alu_chip(seed, corner)
                else:
                    ctx.chip(seed, corner, buffered)
            elif kind == "etrace_batch":
                benchmark, seeds, corner, buffered = part
                ctx.error_traces_batch(benchmark, seeds, corner, buffered)
            else:
                benchmark, chip_seed, corner, buffered = part
                ctx.error_trace(benchmark, chip_seed, corner, buffered)
        return ctx.store.stats.as_dict() if ctx.store is not None else None
    finally:
        obs.flush_worker()


# ----------------------------------------------------------------------
# orchestrator side
# ----------------------------------------------------------------------

def _crash_outcome(
    experiment_id: str, spec: WorkerSpec, message: str, attempts: int
) -> RunOutcome:
    obs.inc("parallel.crashes")
    obs.emit("crash", experiment=experiment_id, reason=message)
    failure = FailureRecord(
        experiment_id=experiment_id,
        kind="crash",
        error_type="WorkerCrash",
        message=message,
        traceback="",
        config_fingerprint=config_fingerprint(spec.config),
        elapsed_s=0.0,
        attempts=attempts,
        context=obs.recent_events(),
    )
    return RunOutcome(experiment_id, None, failure, 0.0, attempts=attempts)


def prefetch_artefacts(
    spec: WorkerSpec, experiment_ids: Sequence[str], jobs: int
) -> StoreStats:
    """Fan the expensive artefacts out across workers ahead of the run.

    Two barrier phases — chips, then the error traces that consume them
    — each filling the shared checkpoint store.  Strictly best-effort: a
    failed or crashed prefetch is only logged, because any experiment
    can recompute its own artefacts through the claimed store.
    """
    from repro.experiments.runner import group_trace_specs, prefetch_plan

    stats = StoreStats()
    if not spec.checkpoint_dir:
        return stats  # nowhere shared to put artefacts
    chips, traces = prefetch_plan(spec.config, experiment_ids)
    # Traces sharing (benchmark, corner, buffered) collapse into one
    # batch-kernel task timing all their chips at once.
    trace_batches = group_trace_specs(traces)
    for phase, parts in (("chip", chips), ("etrace_batch", trace_batches)):
        if not parts:
            continue
        logger.info("prefetching %d %s artefact(s)", len(parts), phase)
        try:
            with obs.span("parallel.prefetch", phase=phase, parts=len(parts)), \
                    ProcessPoolExecutor(
                        max_workers=min(jobs, len(parts)),
                        mp_context=_mp_context(),
                    ) as pool:
                futures = [
                    pool.submit(
                        _prefetch_task, spec, phase, part, time.perf_counter()
                    )
                    for part in parts
                ]
                for future in as_completed(futures):
                    try:
                        worker_stats = future.result()
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        logger.warning("prefetch task failed: %s", exc)
                    else:
                        if worker_stats:
                            stats.merge(worker_stats)
        except BrokenProcessPool:
            logger.warning(
                "prefetch pool died; experiments will compute artefacts on demand"
            )
            return stats
    return stats


def run_many_parallel(
    experiment_ids: Sequence[str],
    spec: WorkerSpec,
    jobs: int | None = None,
    on_outcome: Callable[[RunOutcome], None] | None = None,
    crash_retries: int = 1,
) -> tuple[RunReport, StoreStats]:
    """Supervise a batch across worker processes.

    The report lists outcomes in submission order regardless of
    completion order, and ``on_outcome`` fires in submission order too
    (held back until every earlier experiment has reported), so the
    incremental output of a parallel run is byte-comparable with a
    serial run's.

    Returns the report plus the workers' merged store statistics.
    """
    ids = list(experiment_ids)
    jobs = jobs or default_jobs()
    outcomes: dict[str, RunOutcome] = {}
    crashes = dict.fromkeys(ids, 0)
    stats = StoreStats()
    emitted = 0

    def flush() -> None:
        nonlocal emitted
        while emitted < len(ids) and ids[emitted] in outcomes:
            if on_outcome is not None:
                on_outcome(outcomes[ids[emitted]])
            emitted += 1

    scratch = Path(tempfile.mkdtemp(prefix="repro-fleet-"))
    spec = dataclasses.replace(spec, scratch_dir=str(scratch))
    try:
        pending = list(ids)
        isolate: list[str] = []
        while pending or isolate:
            # quarantined suspects run one per round in a single-worker
            # pool: if that pool breaks, the sole started task is the
            # culprit beyond doubt
            if isolate:
                batch = [isolate.pop(0)]
            else:
                batch, pending = pending, []
            for marker in scratch.glob("started-*"):
                try:
                    marker.unlink()
                except OSError:
                    pass
            broken = False
            with ProcessPoolExecutor(
                max_workers=min(jobs, len(batch)), mp_context=_mp_context()
            ) as pool:
                futures = {
                    pool.submit(
                        _run_experiment_task, spec, eid, time.perf_counter()
                    ): eid
                    for eid in batch
                }
                for future in as_completed(futures):
                    eid = futures[future]
                    try:
                        outcome, worker_stats = future.result()
                    except BrokenProcessPool:
                        # every not-yet-finished future fails instantly
                        # once the pool breaks; keep draining so results
                        # that DID complete are never thrown away
                        broken = True
                        continue
                    except Exception as exc:
                        # orchestration failure (e.g. unpicklable result):
                        # contained exactly like an in-experiment crash
                        outcome = _crash_outcome(
                            eid, spec, f"{type(exc).__name__}: {exc}",
                            attempts=crashes[eid] + 1,
                        )
                        worker_stats = None
                    if worker_stats:
                        stats.merge(worker_stats)
                    outcomes[eid] = outcome
                    obs.emit(
                        "result", experiment=eid,
                        status="ok" if outcome.ok else outcome.failure.kind,
                        elapsed_s=round(outcome.elapsed_s, 3),
                    )
                    flush()
            unfinished = [eid for eid in batch if eid not in outcomes]
            if broken and unfinished:
                started = {
                    eid for eid in unfinished
                    if (scratch / f"started-{eid}").exists()
                }
                # a pool that died before any task began indicts everyone
                blamed = started or set(unfinished)
                if len(blamed) > 1:
                    # ambiguous: any of the started tasks may have killed
                    # the pool.  No strikes — quarantine the suspects so
                    # the next break has exactly one possible culprit,
                    # and an innocent co-resident is never failed out
                    logger.warning(
                        "worker pool died with %d tasks in flight (%s); "
                        "isolating them to identify the culprit",
                        len(blamed), ", ".join(sorted(blamed)),
                    )
                    for eid in sorted(blamed):
                        obs.emit("resubmit", experiment=eid, reason="pool died; isolating")
                    isolate.extend(eid for eid in unfinished if eid in blamed)
                    pending.extend(
                        eid for eid in unfinished if eid not in blamed
                    )
                else:
                    for eid in unfinished:
                        if eid in blamed:
                            crashes[eid] += 1
                            if crashes[eid] > crash_retries:
                                outcomes[eid] = _crash_outcome(
                                    eid, spec,
                                    "worker process died"
                                    " (killed or out of memory)",
                                    attempts=crashes[eid],
                                )
                                flush()
                                continue
                            logger.warning(
                                "worker running %s died; retrying (%d/%d)",
                                eid, crashes[eid], crash_retries,
                            )
                            obs.emit(
                                "resubmit", experiment=eid,
                                reason=f"worker died ({crashes[eid]}/{crash_retries})",
                            )
                            # a repeat offender re-runs quarantined
                            isolate.append(eid)
                        else:
                            pending.append(eid)
            else:
                pending.extend(unfinished)
    finally:
        for marker in scratch.glob("started-*"):
            try:
                marker.unlink()
            except OSError:
                pass
        try:
            scratch.rmdir()
        except OSError:
            pass

    report = RunReport()
    report.outcomes.extend(outcomes[eid] for eid in ids)
    return report, stats


def run_fleet(
    experiment_ids: Sequence[str],
    spec: WorkerSpec,
    jobs: int | None = None,
    on_outcome: Callable[[RunOutcome], None] | None = None,
    crash_retries: int = 1,
) -> tuple[RunReport, StoreStats]:
    """Prefetch shared artefacts, then fan the experiments out.

    The convenience wrapper the CLI uses for ``--jobs > 1``.  The parent
    fabricates the run's chip populations once, publishes them to
    shared-memory segments, and ships only the catalog inside the
    :class:`WorkerSpec` — workers attach zero-copy views instead of
    pickling or recomputing whole chips.  The parent generates no
    instruction trace: each error-trace worker generates its own.
    Publishing is best-effort: on any failure the fleet runs exactly as
    before, computing artefacts through the store.
    """
    from repro.experiments.runner import build_shared_artefacts

    jobs = jobs or default_jobs()
    obs.gauge("parallel.jobs", jobs)
    stats = StoreStats()
    publisher = None
    try:
        catalog, publisher = build_shared_artefacts(spec.config, experiment_ids)
    except Exception as exc:
        logger.warning(
            "shared-memory publish failed (%s); workers will compute "
            "artefacts locally", exc,
        )
    else:
        if catalog is not None and len(catalog):
            spec = dataclasses.replace(spec, shm_catalog=catalog)
    try:
        stats.merge(prefetch_artefacts(spec, experiment_ids, jobs))
        with obs.span(
            "parallel.fanout", experiments=len(experiment_ids), jobs=jobs
        ):
            report, run_stats = run_many_parallel(
                experiment_ids, spec, jobs=jobs,
                on_outcome=on_outcome, crash_retries=crash_retries,
            )
    finally:
        if publisher is not None:
            publisher.unlink()
    stats.merge(run_stats)
    return report, stats
