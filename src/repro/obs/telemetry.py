"""One telemetry object per process, built from one frozen spec.

A :class:`Telemetry` owns every channel a process records into: metrics,
spans and profiles (:class:`~repro.obs.recorder.TelemetryRecorder`),
lifecycle events (:class:`~repro.obs.events.EventLog`) and scheme
decisions (:class:`~repro.obs.audit.AuditRecorder`); a channel whose
:class:`TelemetrySpec` flag is off is ``None``.

Workers :meth:`~Telemetry.flush` into the run's one shard directory
under one name, ``shard-v<SHARD_VERSION>-<pid>-<tag>``: ``.json`` for
metrics and spans, ``.npz`` for the decision columns.
:meth:`~Telemetry.merge` folds the parent's channels and the shard
directory into the run's documents.  Every run is identified by
:func:`new_trace_id`, which stamps its spans, events and ledger record.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any

from repro import obs
from repro.obs import audit
from repro.obs.events import EventLog
from repro.obs.recorder import SHARD_VERSION, TelemetryRecorder


def new_trace_id() -> str:
    """A 128-bit run-scoped trace id (hex, W3C traceparent sized)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A 64-bit span id for the run-level parent span."""
    return os.urandom(8).hex()


@dataclasses.dataclass(frozen=True)
class TelemetrySpec:
    """Which channels a run records, and where its workers put shards.

    Plain values only: it rides inside the pickled worker spec.
    """

    #: record metrics, spans (and profiles, with ``profile``)
    metrics: bool = False
    profile: bool = False
    profile_top: int = 5
    #: the run's event-stream file (None = events off); fork workers
    #: append to it directly
    events_path: str | None = None
    #: audit sampling policy text (None = audit off)
    audit_policy: str | None = None
    #: run-scoped trace id stamped on spans and events
    trace_id: str = ""
    #: the coordinator's run-level span id (parent linkage for workers)
    parent_span_id: str | None = None
    #: directory workers flush their shards into (None = the run has no
    #: workers, or records nothing that needs merging)
    shard_dir: str | None = None

    @property
    def on(self) -> bool:
        return (self.metrics or self.events_path is not None
                or self.audit_policy is not None)


@dataclasses.dataclass
class MergedTelemetry:
    """A run's telemetry folded across every process that recorded it."""

    metrics: dict[str, Any] | None = None
    trace: dict[str, Any] | None = None
    profiles: list[dict[str, Any]] = dataclasses.field(default_factory=list)
    audit_runs: list[dict[str, Any]] | None = None
    #: shards skipped by the stale rule, over both encodings
    stale: int = 0


class Telemetry:
    """Every observability channel of one process."""

    def __init__(self, spec: TelemetrySpec, process: str = "main") -> None:
        self.spec = spec
        self.pid = os.getpid()
        self.recorder = TelemetryRecorder(
            process=process, profile=spec.profile,
            profile_top=spec.profile_top, trace_id=spec.trace_id,
        ) if spec.metrics else None
        self.events = (EventLog(spec.events_path, trace_id=spec.trace_id)
                       if spec.events_path is not None else None)
        self.audit = (audit.AuditRecorder(spec.audit_policy)
                      if spec.audit_policy is not None else None)
        #: distinguishes shards when a pid is ever reused across pools
        self._tag = time.time_ns()

    def flush(self) -> None:
        """Atomically (re)write this process's shard pair; never raises.

        Called after every worker task.  The snapshots are cumulative,
        so rewriting is idempotent and a crash between tasks loses at
        most the unfinished task's telemetry.  A failed write only
        reduces coverage: telemetry must never take a run down.
        """
        if self.spec.shard_dir is None:
            return
        stem = os.path.join(
            self.spec.shard_dir, f"shard-v{SHARD_VERSION}-{self.pid}-{self._tag}"
        )
        for channel, suffix in ((self.recorder, ".json"), (self.audit, ".npz")):
            if channel is not None:
                try:
                    channel.write_shard(stem + suffix)
                except Exception:
                    pass

    def merge(self) -> MergedTelemetry:
        """This process's channels plus every worker's shards, folded.

        The parent's own snapshot joins in memory; the workers' shards
        are read from the directory.
        """
        merged = MergedTelemetry()
        shard_dir = self.spec.shard_dir
        if self.audit is not None:
            docs = [{"runs": self.audit.snapshot_runs()}]
            if shard_dir is not None:
                worker_docs, stale = audit.scan_audit_shards(shard_dir)
                docs.extend(worker_docs)
                merged.stale += stale
            merged.audit_runs = audit.merge_audit(docs)
        if self.recorder is not None:
            docs = [self.recorder.snapshot_doc()]
            if shard_dir is not None:
                worker_docs, stale = obs.scan_shards(shard_dir)
                docs.extend(worker_docs)
                merged.stale += stale
            registry, events, merged.profiles, processes = obs.merge_shards(docs)
            if merged.stale:
                registry.inc("obs.stale_shards_skipped", merged.stale)
            merged.metrics = obs.metrics_document(registry, processes)
            merged.trace = obs.trace_document(events, trace_id=self.spec.trace_id)
        return merged
