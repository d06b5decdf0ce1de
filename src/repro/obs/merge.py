"""Deterministic shard merging and telemetry document rendering.

A telemetry run produces one in-memory recorder in the parent and zero
or more ``shard-v<version>-<pid>-<tag>.json`` files written by workers.
This module folds them into the two artefacts the CLI emits:

* ``metrics.json`` — merged counters/gauges/histogram summaries, keys
  sorted, values rounded; identical regardless of the order shards are
  merged in (counters add, gauges max, histogram samples re-sort).
* ``trace.json`` — a Chrome trace-event document (``traceEvents`` +
  ``displayTimeUnit``) that loads in ``chrome://tracing`` / Perfetto,
  events sorted on a stable key.

:func:`determinism_view` defines which part of ``metrics.json`` is
*schedule-invariant*: the same experiment set must produce the same
view at ``--jobs 1`` and ``--jobs 4``.  Timing histograms, gauges, and
counter families that legitimately depend on scheduling (checkpoint
hit/miss patterns, claim traffic, per-worker queue stats, STA reruns in
per-process stage builds) are excluded; domain counters (experiment
outcomes, artefact computations, DTA evaluations) are kept.  The
determinism test in ``tests/test_obs.py`` consumes this view.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import SHARD_VERSION

#: counter/gauge families that legitimately differ between schedules
#: (``--jobs 1`` vs ``--jobs N``) and are therefore excluded from the
#: determinism view.  ``span.`` is excluded because worker/prefetch
#: spans only exist in parallel runs; the domain families (``scheme.``,
#: ``choke.``, ``etrace.``) are excluded because serial runs memoise
#: scheme sweeps across experiments while parallel workers rebuild a
#: fresh context per task, so emission counts differ by schedule even
#: though the science does not; ``metrics.json`` still carries them.
#: The shared-memory hand-off families (``shm.``, ``runner.chips_``,
#: ``pv.populations_``) only exist in fleet runs — serial runs
#: fabricate the chip locally (``runner.chips_computed``) while fleets
#: publish a population once and attach per worker — so the
#: *mechanism* counters are schedule-dependent even though the chips
#: delivered are bit-identical.
SCHEDULE_DEPENDENT_PREFIXES = (
    "checkpoint.",
    "worker.",
    "prefetch.",
    "parallel.",
    "span.",
    "sta.",
    "runner.trace",
    "cli.",
    "scheme.",
    "choke.",
    "etrace.",
    "obs.",
    "shm.",
    "runner.chips_",
    "pv.populations_",
    # audit.* counters track how many runs/records the audit sink saw in
    # *this process* — parallel workers re-simulate what a serial run
    # memoises, so the counts are schedule-dependent (the merged audit
    # stream itself is deduplicated and schedule-independent).
    "audit.",
)

_SHARD_NAME = re.compile(r"^shard-v(\d+)-(\d+)-\d+\.(?:json|npz)$")


def _scan_shards(
    directory: str | Path, suffix: str, load: Callable[[Path], dict[str, Any]]
) -> tuple[list[dict[str, Any]], int]:
    """The ``shard-*<suffix>`` documents under ``directory``, plus a stale count.

    One rule for both shard encodings.  A file is **stale** — counted,
    never merged — when it is unreadable or truncated, when its name
    lacks the ``shard-v<version>-<pid>-<tag>`` form or carries a foreign
    :data:`SHARD_VERSION` (a leftover from an older layout in a reused
    directory), or when its header's version or pid disagrees with its
    name (a renamed or cross-run leftover).  The CLI surfaces the count
    as ``obs.stale_shards_skipped`` instead of silently merging a
    previous run's numbers into this one.
    """
    docs: list[dict[str, Any]] = []
    stale = 0
    for path in sorted(Path(directory).glob(f"shard-*{suffix}")):
        match = _SHARD_NAME.match(path.name)
        try:
            if match is None or int(match.group(1)) != SHARD_VERSION:
                raise ValueError("foreign shard name")
            doc = load(path)
            if (doc.get("version") != SHARD_VERSION
                    or doc.get("pid") != int(match.group(2))):
                raise ValueError("header disagrees with name")
        except Exception:
            stale += 1
            continue
        docs.append(doc)
    return docs, stale


def scan_shards(directory: str | Path) -> tuple[list[dict[str, Any]], int]:
    """Metrics/span shard documents under ``directory`` plus a stale count."""
    return _scan_shards(directory, ".json", lambda path: json.loads(path.read_text()))


def merge_shards(
    docs: Iterable[dict[str, Any]],
) -> tuple[MetricsRegistry, list[dict[str, Any]], list[dict[str, Any]],
           list[dict[str, Any]]]:
    """Fold shard documents into (registry, trace events, profiles, processes)."""
    registry = MetricsRegistry()
    events: list[dict[str, Any]] = []
    profiles: list[dict[str, Any]] = []
    processes: list[dict[str, Any]] = []
    for doc in docs:
        registry.merge(doc.get("metrics", {}))
        events.extend(doc.get("trace_events", []))
        profiles.extend(doc.get("profiles", []))
        processes.append({
            "pid": doc.get("pid", 0),
            "process": doc.get("process", "unknown"),
        })
    events.sort(key=lambda e: (e.get("ts", 0), e.get("pid", 0),
                               e.get("tid", 0), e.get("name", "")))
    profiles.sort(key=lambda p: (-p.get("duration_s", 0.0), p.get("span", "")))
    processes.sort(key=lambda p: (p["process"], p["pid"]))
    return registry, events, profiles, processes


def metrics_document(
    registry: MetricsRegistry, processes: list[dict[str, Any]] | None = None
) -> dict[str, Any]:
    """The ``metrics.json`` payload: summaries only, keys sorted."""
    snapshot = registry.snapshot(include_values=False)
    return {
        "version": snapshot["version"],
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "processes": processes or [],
    }


def trace_document(
    events: list[dict[str, Any]], trace_id: str | None = None
) -> dict[str, Any]:
    """A Chrome trace-event JSON document (Perfetto-loadable).

    ``trace_id`` (when the run has one) rides in the top-level
    ``metadata`` object — Perfetto ignores unknown top-level keys, and
    it lets tooling link a trace file to the run's event and audit
    streams.
    """
    doc: dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if trace_id:
        doc["metadata"] = {"trace_id": trace_id}
    return doc


def determinism_view(metrics_doc: dict[str, Any]) -> dict[str, Any]:
    """The schedule-invariant slice of a metrics document.

    Drops every histogram and gauge (they carry timing values) and every
    counter in a :data:`SCHEDULE_DEPENDENT_PREFIXES` family; what is left
    must be bit-identical between ``--jobs 1`` and ``--jobs N`` runs of
    the same experiment set.
    """
    counters = {
        name: value
        for name, value in metrics_doc.get("counters", {}).items()
        if not name.startswith(SCHEDULE_DEPENDENT_PREFIXES)
    }
    return {"counters": counters}


def summary_table(metrics_doc: dict[str, Any], top: int = 12) -> str:
    """Human terminal summary: spans ranked by total wall-clock."""
    rows = []
    for name, entry in metrics_doc.get("histograms", {}).items():
        if not (name.startswith("span.") and name.endswith(".s")):
            continue
        rows.append((entry["sum"], name[len("span."):-len(".s")], entry))
    rows.sort(key=lambda row: (-row[0], row[1]))
    lines = ["== telemetry: spans by total wall-clock =="]
    if not rows:
        lines.append("  (no spans recorded)")
        return "\n".join(lines)
    width = max(len(name) for _, name, _ in rows[:top])
    header = (f"  {'span'.ljust(width)}  {'count':>6}  {'total_s':>9}"
              f"  {'mean_s':>9}  {'p95_s':>9}")
    lines.append(header)
    for total, name, entry in rows[:top]:
        lines.append(
            f"  {name.ljust(width)}  {entry['count']:>6d}  {total:>9.3f}"
            f"  {entry['mean']:>9.4f}  {entry['p95']:>9.4f}"
        )
    if len(rows) > top:
        lines.append(f"  ... and {len(rows) - top} more span(s)")
    return "\n".join(lines)


def profile_report(profiles: list[dict[str, Any]], top: int = 5) -> str:
    """Plain-text report of the slowest profiled spans."""
    if not profiles:
        return "no spans were profiled (was --profile set and any span run?)\n"
    sections = []
    for rank, entry in enumerate(profiles[:top], start=1):
        sections.append(
            f"== profile {rank}/{min(top, len(profiles))}: "
            f"{entry['span']} ({entry['duration_s']:.3f}s) ==\n"
            f"{entry['stats']}"
        )
    return "\n".join(sections)
