"""Experiment telemetry: metrics, spans, events and decision audit.

Instrumented code (``pv``, ``timing``, ``core``, ``runtime``,
``experiments``) calls the module-level helpers below unconditionally;
whether anything is recorded depends on the process's one
:class:`Telemetry` object (:mod:`repro.obs.telemetry`).

* **Off (default).**  ``span()`` returns a shared no-op context manager
  and ``inc``/``observe``/``gauge``/``emit`` (and ``audit.get()``) cost
  one global read and one ``None`` check, guarded by the overhead tests
  in ``tests/test_obs.py``, ``test_events.py`` and ``test_audit.py``.
* **On.**  :func:`install` points those globals at the object's
  channels; :func:`uninstall` turns them all off again.  Workers build
  their own object with :func:`ensure_worker` and write one shard pair
  per process with :func:`flush_worker`; :meth:`Telemetry.merge` folds
  everything into ``metrics.json``, ``trace.json`` and the audit stream.

Typical instrumentation::

    from repro import obs

    with obs.span("dta.cycle_timings", cycles=total):
        ...
    obs.inc("dta.evaluations")
    obs.observe("worker.queue_wait_s", waited)
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs import audit
from repro.obs.events import (
    EVENT_KINDS,
    EVENTS_VERSION,
    EventLog,
    format_event,
    iter_events,
    read_events,
)
from repro.obs.merge import (
    SCHEDULE_DEPENDENT_PREFIXES,
    determinism_view,
    merge_shards,
    metrics_document,
    profile_report,
    scan_shards,
    summary_table,
    trace_document,
)
from repro.obs.metrics import Histogram, MetricsRegistry, labelled, quantile
from repro.obs.recorder import (
    NULL_SPAN,
    SHARD_VERSION,
    NullSpan,
    Span,
    TelemetryRecorder,
)
from repro.obs.telemetry import (
    MergedTelemetry,
    Telemetry,
    TelemetrySpec,
    new_trace_id,
)

__all__ = [
    "EVENT_KINDS",
    "EVENTS_VERSION",
    "EventLog",
    "Histogram",
    "MergedTelemetry",
    "MetricsRegistry",
    "NullSpan",
    "SCHEDULE_DEPENDENT_PREFIXES",
    "SHARD_VERSION",
    "Span",
    "Telemetry",
    "TelemetryRecorder",
    "TelemetrySpec",
    "active",
    "determinism_view",
    "emit",
    "enabled",
    "ensure_worker",
    "events_enabled",
    "flush_worker",
    "format_event",
    "gauge",
    "inc",
    "install",
    "iter_events",
    "labelled",
    "merge_shards",
    "metrics_document",
    "new_trace_id",
    "observe",
    "profile_report",
    "quantile",
    "read_events",
    "recent_events",
    "scan_shards",
    "span",
    "summary_table",
    "trace_document",
    "uninstall",
]

#: the process's telemetry; ``None`` means every channel is off.
_telemetry: Telemetry | None = None

#: the hot-path view of its channels (``None`` = that channel is off).
_recorder: TelemetryRecorder | None = None
_events: EventLog | None = None


def install(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` this process's sink for every channel."""
    global _telemetry, _recorder, _events
    _telemetry = telemetry
    _recorder = telemetry.recorder
    _events = telemetry.events
    audit._sink = telemetry.audit
    return telemetry


def uninstall() -> None:
    """Turn every channel off (the default state)."""
    global _telemetry, _recorder, _events
    telemetry = _telemetry
    _telemetry = _recorder = _events = None
    audit._sink = None
    if telemetry is not None and telemetry.events is not None:
        telemetry.events.close()


def active() -> Telemetry | None:
    return _telemetry


def enabled() -> bool:
    return _recorder is not None


def events_enabled() -> bool:
    return _events is not None


# ----------------------------------------------------------------------
# hot-path helpers: one global read + None check when telemetry is off
# ----------------------------------------------------------------------

def span(name: str, **attrs: Any):
    """A phase-tracing context manager (no-op while telemetry is off)."""
    recorder = _recorder
    if recorder is None:
        return NULL_SPAN
    return recorder.span(name, attrs)


def inc(name: str, value: float = 1, **labels: Any) -> None:
    recorder = _recorder
    if recorder is not None:
        recorder.metrics.inc(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    recorder = _recorder
    if recorder is not None:
        recorder.metrics.observe(name, value, **labels)


def gauge(name: str, value: float, **labels: Any) -> None:
    recorder = _recorder
    if recorder is not None:
        recorder.metrics.gauge(name, value, **labels)


def emit(kind: str, **fields: Any) -> None:
    """Record one lifecycle event (no-op while the event stream is off)."""
    log = _events
    if log is not None:
        log.emit(kind, **fields)


def recent_events(n: int = 16) -> tuple[str, ...]:
    """The flight recorder's last ``n`` events (crash context)."""
    log = _events
    if log is None:
        return ()
    return tuple(log.recent(n))


# ----------------------------------------------------------------------
# worker-process lifecycle (used by repro.runtime.parallel)
# ----------------------------------------------------------------------

def ensure_worker(spec: TelemetrySpec) -> Telemetry | None:
    """Give a worker process its own telemetry built from ``spec``.

    Telemetry installed by this process is kept: a pool worker runs
    many tasks.  Telemetry whose pid is not ours was inherited
    through fork; recording into it would double-count the parent's
    history into the worker's shard, so it is replaced with a fresh
    object, or dropped when ``spec`` records nothing.
    """
    telemetry = _telemetry
    if telemetry is not None and telemetry.pid == os.getpid():
        return telemetry
    if not spec.on:
        uninstall()
        return None
    return install(Telemetry(spec, process="worker"))


def flush_worker() -> None:
    """Rewrite this worker's shard pair (idempotent, never raises)."""
    telemetry = _telemetry
    if telemetry is not None and telemetry.pid == os.getpid():
        telemetry.flush()
