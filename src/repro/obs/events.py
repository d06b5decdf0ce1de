"""Structured run/task lifecycle events: crash-safe JSONL + flight recorder.

Metrics answer "how much"; the event stream answers "what happened,
when, on which worker".  Every step of a run's lifecycle — start,
scheduling, task start, resubmissions, crashes, results, end — becomes
one JSON object appended to the run's ``--events-out`` file.

Durability comes from the write pattern: each event is a single
``write()`` of one newline-terminated line on an ``O_APPEND``
descriptor, so concurrent writers (the coordinator plus fork workers
sharing the inherited log) interleave whole lines, and a crash leaves
at most one truncated final line, which :func:`read_events` tolerates.
There is no per-event fsync — events are a telemetry stream, not the
artefact of record, and must stay cheap enough to emit from scheduling
hot paths.

Every :class:`EventLog` also keeps a bounded in-memory **flight
recorder** of the most recent events.  When the runtime blames a
crash, the last few events are dumped into the
:class:`~repro.runtime.executor.FailureRecord` context — the "what was
the fleet doing just before it died" answer that aggregate counters
cannot give.

Events are *schedule-dependent by design* (worker assignment and
timing vary run to run) and are therefore excluded from determinism
comparisons, like the ``worker.``/``parallel.`` counter families.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Iterator

#: bump when the event layout changes incompatibly.
EVENTS_VERSION = 1

#: the closed set of event kinds (mirrored in events.schema.json).
EVENT_KINDS = (
    "run_start",
    "scheduled",
    "started",
    "resubmit",
    "crash",
    "result",
    "run_end",
)

#: how many recent events the in-memory flight recorder retains.
FLIGHT_RECORDER_SIZE = 64


class EventLog:
    """One append-only event sink (file plus bounded flight recorder).

    ``path=None`` keeps only the flight recorder — used when the
    runtime wants crash context without an ``--events-out`` file.
    Emission never raises: a full disk degrades to in-memory-only
    events, exactly like a failing telemetry flush.
    """

    def __init__(
        self,
        path: str | os.PathLike | None,
        trace_id: str = "",
        flight_size: int = FLIGHT_RECORDER_SIZE,
    ) -> None:
        self.path = str(path) if path is not None else None
        self.trace_id = trace_id
        self.count = 0
        self.flight: deque[dict[str, Any]] = deque(maxlen=flight_size)
        self._fd: int | None = None
        self._dead = False

    def emit(self, kind: str, **fields: Any) -> dict[str, Any]:
        event: dict[str, Any] = {
            "v": EVENTS_VERSION,
            "ts": round(time.time(), 6),
            "pid": os.getpid(),
            "kind": kind,
        }
        if self.trace_id:
            event["trace_id"] = self.trace_id
        for key, value in fields.items():
            if value is not None:
                event[key] = value
        self.flight.append(event)
        self.count += 1
        if self.path is not None and not self._dead:
            try:
                if self._fd is None:
                    self._fd = os.open(
                        self.path,
                        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                        0o644,
                    )
                line = json.dumps(event, sort_keys=True)
                os.write(self._fd, line.encode() + b"\n")
            except (OSError, ValueError, TypeError):
                self._dead = True  # keep the flight recorder, stop writing
        return event

    def recent(self, n: int = 16) -> list[str]:
        """The last ``n`` events, compactly rendered for failure context."""
        return [format_event(event) for event in list(self.flight)[-n:]]

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None


def format_event(event: dict[str, Any]) -> str:
    """One event as a compact single line (flight dumps, ``progress``)."""
    parts = [f"{event.get('ts', 0):.3f}", str(event.get("kind", "?"))]
    for key in ("experiment", "worker", "status", "reason"):
        value = event.get(key)
        if value is not None:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def iter_events(path: str | os.PathLike) -> Iterator[dict[str, Any]]:
    """Parseable events in file order; malformed lines are skipped.

    In practice the only malformed line is a truncated tail from a
    writer that died mid-append — replay must shrug it off.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            yield event


def read_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    return list(iter_events(path))
