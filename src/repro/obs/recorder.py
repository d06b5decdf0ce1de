"""Span recording, Chrome trace events, and opt-in span profiling.

A :class:`TelemetryRecorder` is the live end of the telemetry
subsystem: instrumented code opens spans through the module-level
helpers in :mod:`repro.obs`, and each completed span becomes

* one ``"ph": "X"`` (complete) Chrome trace event — the ``trace.json``
  the CLI writes loads directly in ``chrome://tracing`` / Perfetto,
* one sample in the ``span.<name>.s`` histogram, and
* one increment of the ``span.count{span=<name>}`` counter.

When profiling is enabled (the CLI's ``--profile``), the recorder
additionally wraps each *outermost* span in a ``cProfile`` session and
keeps the stats of the top-N slowest spans.  Nested spans are never
profiled (``cProfile`` cannot nest), and profiling is strictly opt-in
because its overhead is far beyond the telemetry budget.

Workers serialise their recorder with
:meth:`TelemetryRecorder.write_shard` when their
:class:`~repro.obs.telemetry.Telemetry` flushes; :mod:`repro.obs.merge`
folds the shards back together.  Timestamps come from
``time.perf_counter`` against a module-import epoch — under the fork
start method every worker inherits the parent's epoch, so all shards
share one trace timeline.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import pstats
import tempfile
import threading
import time
from typing import Any

from repro.obs.metrics import MetricsRegistry

#: bump when the shard layout changes (the JSON document or the npz
#: decision shard written beside it under the same name).
SHARD_VERSION = 2

#: common timeline origin for trace timestamps; fork workers inherit it.
_EPOCH = time.perf_counter()


class NullSpan:
    """The shared do-nothing span returned while telemetry is off."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


NULL_SPAN = NullSpan()


class Span:
    """One live span; records a trace event + duration sample on exit."""

    __slots__ = ("_recorder", "name", "args", "_start", "_profile")

    def __init__(self, recorder: "TelemetryRecorder", name: str,
                 args: dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.args = args
        self._start = 0.0
        self._profile: cProfile.Profile | None = None

    def __enter__(self) -> "Span":
        recorder = self._recorder
        if recorder.profile and not recorder._profiling:
            recorder._profiling = True
            self._profile = cProfile.Profile()
            self._profile.enable()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        end = time.perf_counter()
        if self._profile is not None:
            self._profile.disable()
            self._recorder._profiling = False
        self._recorder._finish_span(
            self.name, self.args, self._start, end, self._profile
        )
        return False


class TelemetryRecorder:
    """Metrics + trace events + profiles for one process."""

    def __init__(
        self,
        process: str = "main",
        profile: bool = False,
        profile_top: int = 5,
        trace_id: str = "",
    ) -> None:
        self.metrics = MetricsRegistry()
        self.events: list[dict[str, Any]] = []
        self.profiles: list[dict[str, Any]] = []
        self.process = process
        self.trace_id = trace_id
        self.pid = os.getpid()
        self.profile = profile
        self.profile_top = profile_top
        self._profiling = False
        self.events.append({
            "name": "process_name", "ph": "M", "ts": 0, "pid": self.pid,
            "tid": 0, "args": {"name": f"{process}-{self.pid}"},
        })

    # ------------------------------------------------------------------
    def span(self, name: str, attrs: dict[str, Any]) -> Span:
        return Span(self, name, attrs)

    def _finish_span(
        self,
        name: str,
        attrs: dict[str, Any],
        start: float,
        end: float,
        profile: cProfile.Profile | None,
    ) -> None:
        duration = end - start
        args = {key: _jsonable(value) for key, value in attrs.items()}
        if self.trace_id:
            args.setdefault("trace_id", self.trace_id)
        self.events.append({
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": round((start - _EPOCH) * 1e6, 1),
            "dur": round(duration * 1e6, 1),
            "pid": self.pid,
            "tid": threading.get_native_id(),
            "args": args,
        })
        self.metrics.observe(f"span.{name}.s", duration)
        self.metrics.inc("span.count", span=name)
        if profile is not None:
            self._keep_profile(name, duration, profile)

    def _keep_profile(self, name: str, duration: float,
                      profile: cProfile.Profile) -> None:
        """Retain the profile iff it ranks among the top-N slowest spans."""
        if (len(self.profiles) >= self.profile_top
                and duration <= self.profiles[-1]["duration_s"]):
            return
        buffer = io.StringIO()
        stats = pstats.Stats(profile, stream=buffer)
        stats.sort_stats("cumulative").print_stats(25)
        self.profiles.append({
            "span": name,
            "duration_s": round(duration, 6),
            "stats": buffer.getvalue(),
        })
        self.profiles.sort(key=lambda entry: -entry["duration_s"])
        del self.profiles[self.profile_top:]

    # ------------------------------------------------------------------
    def snapshot_doc(self) -> dict[str, Any]:
        """The full shard document (metrics with raw samples included)."""
        return {
            "version": SHARD_VERSION,
            "process": self.process,
            "pid": self.pid,
            "trace_id": self.trace_id,
            "metrics": self.metrics.snapshot(include_values=True),
            "trace_events": list(self.events),
            "profiles": list(self.profiles),
        }

    def write_shard(self, path: str) -> None:
        """Atomically write the shard document to ``path``."""
        atomic_write_bytes(path, json.dumps(self.snapshot_doc()).encode())


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temp file and a rename.

    A reader never sees a half-written file: a writer that dies
    mid-write leaves only its ``.tmp`` file, which no scan matches.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
