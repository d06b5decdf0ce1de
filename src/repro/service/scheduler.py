"""The scheduler bridge: job table -> ExecutorBackend fleet.

One worker thread drains accepted jobs sequentially, off the asyncio
event loop.  Sequential on purpose: the process's telemetry
(:func:`repro.obs.install`) is process-global — one events file per
run — so one run executes at a time while the *inside* of a run fans
out across the configured backend (``--jobs``/``--backend`` exactly as
on the CLI, including the remote worker fleet).

Per executed job the runner:

1. installs fresh per-job telemetry whose one channel is the event
   stream at ``jobs/<id>/events.jsonl`` (the file the SSE endpoint
   tails),
2. runs the request through
   :func:`repro.runtime.backends.resolve_backend` with a
   :class:`~repro.runtime.WorkerSpec` built exactly as the CLI builds
   one,
3. renders the report through the *shared*
   :func:`repro.experiments.reportio.render_report` and atomically
   writes it into the report store — this is the byte-identity
   guarantee: the service serves the same renderer's bytes,
4. appends one run-ledger record (``notes="service:<job id>"``) so the
   run history and dashboard cover service runs too.

Shutdown drains the in-flight job (it completes and is journaled), then
blames every still-queued job with a ``FailureRecord``-shaped payload of
kind ``"shutdown"`` — a stopped service never silently loses work.
"""

from __future__ import annotations

import queue
import threading
import traceback

from repro import obs
from repro.experiments.config import ExperimentConfig
from repro.experiments.reportio import atomic_write_text, render_report
from repro.obs.ledger import RunLedger, build_record
from repro.runtime import WorkerSpec, default_jobs
from repro.runtime.backends import RemoteOptions, resolve_backend
from repro.runtime.log import get_logger

from repro.service.jobs import Job, JobTable

logger = get_logger("service")

_STOP = object()


class JobRunner:
    """Sequential job executor on a daemon worker thread."""

    def __init__(
        self,
        table: JobTable,
        ledger_dir: str | None = None,
        jobs: int = 1,
        backend: str = "auto",
        workers: tuple[str, ...] = (),
        retries: int = 0,
    ) -> None:
        self.table = table
        self.ledger = RunLedger(ledger_dir or table.root / "ledger")
        self.jobs = jobs or default_jobs()
        backend_name = backend
        if backend_name == "auto":
            backend_name = "inproc" if self.jobs == 1 else "procpool"
        if backend_name == "remote" and not workers:
            raise ValueError("backend 'remote' requires worker addresses")
        self.backend_name = backend_name
        self.workers = tuple(workers)
        self.retries = retries
        self._queue: queue.Queue = queue.Queue()
        self._stopping = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="service-runner", daemon=True
        )
        self._thread.start()

    # -- intake --------------------------------------------------------
    def enqueue(self, job: Job) -> None:
        self._queue.put(job.id)

    # -- shutdown ------------------------------------------------------
    def shutdown(self, timeout_s: float = 60.0) -> None:
        """Drain the running job, then blame everything still queued."""
        self._stopping.set()
        self._queue.put(_STOP)
        self._thread.join(timeout=timeout_s)
        for job in self.table.jobs():
            if job.state in ("queued", "running"):
                self.table.blame_shutdown(job.id)

    # -- the worker loop -----------------------------------------------
    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if self._stopping.is_set():
                continue  # shutdown() will blame it
            job = self.table.get(item)
            if job is None or job.state != "queued":
                continue
            try:
                self._execute(job)
            except BaseException as exc:  # the job machinery broke
                logger.error("job %s failed: %s", job.id, exc)
                self.table.mark_failed(job.id, {
                    "experiment_id": "*",
                    "kind": "exception",
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                    "config_fingerprint": job.digest,
                    "elapsed_s": 0.0,
                    "attempts": 1,
                })

    def _execute(self, job: Job) -> None:
        self.table.mark_running(job.id)
        config = ExperimentConfig(**{
            **job.config, "benchmarks": tuple(job.config["benchmarks"]),
        })
        events_path = self.table.events_path(job.id)
        events_path.parent.mkdir(parents=True, exist_ok=True)
        telemetry = obs.install(obs.Telemetry(obs.TelemetrySpec(
            events_path=str(events_path), trace_id=obs.new_trace_id(),
        )))
        spec = WorkerSpec(
            config=config,
            checkpoint_dir=str(self.table.root / "checkpoints"),
            resume=True,
            retries=self.retries,
            telemetry=telemetry.spec,
        )
        remote_options = None
        if self.backend_name == "remote":
            remote_options = RemoteOptions(workers=self.workers)
        backend = resolve_backend(self.backend_name, remote_options=remote_options)
        obs.emit(
            "run_start",
            backend=self.backend_name,
            jobs=self.jobs,
            experiments=len(job.experiments),
        )
        try:
            report, _stats = backend.run(
                list(job.experiments), spec, jobs=self.jobs
            )
            obs.emit(
                "run_end",
                status="ok" if report.ok else "failed",
                ok=len(report.outcomes) - len(report.failures),
                total=len(report.outcomes),
            )
        finally:
            obs.uninstall()

        payload = render_report(report, job.fmt)
        atomic_write_text(
            str(self.table.report_path(job.digest, job.fmt)), payload
        )
        record = build_record(
            report=report,
            metrics_doc={},
            config=config,
            trace_id=telemetry.spec.trace_id,
            notes=f"service:{job.id}",
        )
        self.ledger.append(record)
        self.table.mark_done(job.id, {
            "ok": len(report.outcomes) - len(report.failures),
            "total": len(report.outcomes),
        })
        logger.info("job %s done (%d experiment(s))", job.id, len(job.experiments))
