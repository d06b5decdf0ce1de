"""Append-only run ledger: one JSONL record per experiment run.

Every PR-3 run produced rich telemetry that died with the process; the
ledger is the durable tail end of the pipeline.  One record per run
captures everything cross-run analysis needs — git revision, config
digest, per-experiment status and wall-clock, the schedule-invariant
counter slice (:func:`repro.obs.merge.determinism_view`), the
scheme/choke domain counters, checkpoint hit-rate, span wall-clock
totals, and the headline scientific quantities of every figure table —
as one JSON line appended to ``<dir>/ledger.jsonl``.

Durability model:

* **Appends are crash-safe.**  A record is a single ``write()`` of one
  ``\\n``-terminated line on an ``O_APPEND`` descriptor, fsynced before
  the handle closes.  A crash mid-append leaves at most one truncated
  final line, which :meth:`RunLedger.records` tolerates (and the next
  append repairs by prefixing a newline), so earlier history is never
  at risk.
* **Rewrites are atomic.**  Retention (:meth:`RunLedger.prune`) and
  compaction rewrite through a temp file + ``os.replace`` in the same
  directory, so readers always see either the old or the new ledger,
  never a torn one.

The record schema is versioned (:data:`LEDGER_VERSION`) and checked in
at ``benchmarks/schemas/ledger.schema.json``; records with an unknown
version are still listed but excluded from trend analysis.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable

from repro.obs.merge import determinism_view

#: bump when the record layout changes incompatibly.
LEDGER_VERSION = 1

#: the ledger file inside a ``--ledger-dir``.
LEDGER_FILENAME = "ledger.jsonl"

#: counter families carrying the paper's domain quantities (scheme
#: errors/rollbacks/replays, choke events, error-trace class counts).
#: They are schedule-dependent (memoisation and checkpoint hits change
#: how often the emitting code runs), so they live in the record's
#: ``domain`` section rather than the gated ``counters`` section.
DOMAIN_COUNTER_PREFIXES = ("scheme.", "choke.", "etrace.")


def _slug(text: str) -> str:
    """Metric-name-safe slug: lowercase, word runs joined by ``_``."""
    return re.sub(r"[^a-z0-9]+", "_", str(text).lower()).strip("_")


def git_revision(cwd: str | os.PathLike | None = None) -> str:
    """The current ``git rev-parse HEAD`` (or ``"unknown"`` outside git)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


def new_run_id() -> str:
    """A sortable, collision-resistant run id (UTC time + pid + nanos)."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"{stamp}-{os.getpid()}-{time.time_ns() % 0xFFFF:04x}"


# ----------------------------------------------------------------------
# record assembly
# ----------------------------------------------------------------------

def headline_metrics(results: Iterable[Any]) -> dict[str, float]:
    """The scientific outputs of a run, flattened to metric -> value.

    For every numeric column of every figure table the mean over the
    rows is recorded under ``<experiment_id>.<table_slug>.<col_slug>``
    — e.g. fig3_10's Razor-normalised penalty per DCS variant, fig4
    energy deltas, choke-point counts.  Means keep the key space
    bounded and benchmark-order-free while preserving exactly the
    trajectory a drift check needs.
    """
    metrics: dict[str, float] = {}
    for result in results:
        for table in getattr(result, "tables", []):
            rows = table.rows
            if not rows:
                continue
            for index, header in enumerate(table.headers):
                values = [row[index] for row in rows]
                if not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in values
                ):
                    continue
                key = f"{result.experiment_id}.{_slug(table.title)}.{_slug(header)}"
                metrics[key] = round(sum(values) / len(values), 9)
    return metrics


def headline_metrics_from_dicts(result_dicts: Iterable[dict]) -> dict[str, float]:
    """:func:`headline_metrics` over ``ExperimentResult.to_dict()`` payloads."""

    class _Table:
        def __init__(self, doc: dict) -> None:
            self.title = doc.get("title", "")
            self.headers = doc.get("headers", [])
            self.rows = doc.get("rows", [])

    class _Result:
        def __init__(self, doc: dict) -> None:
            self.experiment_id = doc.get("experiment_id", "unknown")
            self.tables = [_Table(t) for t in doc.get("tables", [])]

    return headline_metrics(_Result(doc) for doc in result_dicts)


def _span_totals(metrics_doc: dict[str, Any]) -> dict[str, float]:
    """Per-span total wall-clock seconds from a metrics document."""
    totals: dict[str, float] = {}
    for name, entry in metrics_doc.get("histograms", {}).items():
        if name.startswith("span.") and name.endswith(".s"):
            totals[name[len("span."):-len(".s")]] = round(entry.get("sum", 0.0), 6)
    return totals


def build_record(
    report: Any = None,
    metrics_doc: dict[str, Any] | None = None,
    config: Any = None,
    rev: str | None = None,
    run_id: str | None = None,
    notes: str | None = None,
    trace_id: str | None = None,
    audit_doc: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one ledger record from a run's report + telemetry.

    Every argument is optional so partial sources (``ledger record``
    from a bare ``metrics.json``) still yield a valid record; missing
    sections are empty, never absent.
    """
    from repro.runtime.checkpoint import config_fingerprint

    metrics_doc = metrics_doc or {}
    counters = metrics_doc.get("counters", {})
    hits = counters.get("checkpoint.hits", 0)
    misses = counters.get("checkpoint.misses", 0)
    span_totals = _span_totals(metrics_doc)

    experiments: dict[str, Any] = {}
    results = []
    if report is not None:
        results = report.results
        for outcome in report.outcomes:
            experiments[outcome.experiment_id] = {
                "status": "ok" if outcome.ok else outcome.failure.kind,
                "elapsed_s": round(outcome.elapsed_s, 3),
                "attempts": outcome.attempts,
            }

    return {
        "version": LEDGER_VERSION,
        "run_id": run_id or new_run_id(),
        "timestamp": round(time.time(), 3),
        "git_rev": rev if rev is not None else git_revision(),
        "config_digest": config_fingerprint(config),
        "experiments": experiments,
        "counters": determinism_view(metrics_doc)["counters"],
        "domain": {
            name: value
            for name, value in counters.items()
            if name.startswith(DOMAIN_COUNTER_PREFIXES)
        },
        "checkpoint": {
            "hits": int(hits),
            "misses": int(misses),
            "hit_rate": round(hits / (hits + misses), 6) if hits + misses else None,
        },
        "spans": span_totals,
        "span_total_s": round(sum(span_totals.values()), 6),
        "science": headline_metrics(results),
        "notes": notes or "",
        # links this record to the run's trace/event artefacts ("" for
        # uninstrumented runs and pre-tracing records)
        "trace_id": trace_id or "",
        # per-scheme decision rollup of the run's cycle-audit stream
        # (see repro.obs.audit.audit_rollup; {} for unaudited runs)
        "audit": audit_doc or {},
    }


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------

def append_jsonl_line(
    path: str | os.PathLike, record: dict[str, Any], fsync: bool = True
) -> None:
    """Crash-safely append one record as a single JSON line.

    The ``O_APPEND`` tail-repair path of the run ledger, which several
    ``--ledger-dir`` runs may append to at once: the record is one
    ``write()`` of one ``\\n``-terminated line, and if a previous append
    was cut short (the file ends mid-line) a leading newline terminates
    the fragment first, so the fragment is skipped on read instead of
    corrupting this record too.  Readers (:meth:`RunLedger.records`,
    :func:`repro.obs.events.iter_events`) never need coordination with
    an appender: they see whole lines plus at most one truncated tail.
    """
    line = json.dumps(record, sort_keys=True)
    if "\n" in line:
        raise ValueError("journal records must serialise to one line")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        prefix = b""
        size = os.fstat(fd).st_size
        if size > 0:
            with open(path, "rb") as handle:
                handle.seek(size - 1)
                if handle.read(1) != b"\n":
                    prefix = b"\n"
        os.write(fd, prefix + line.encode() + b"\n")
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


class RunLedger:
    """The append-only JSONL store under one ``--ledger-dir``."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        self.path = self.root / LEDGER_FILENAME

    def __len__(self) -> int:
        return len(self.records())

    # -- writing -------------------------------------------------------
    def append(self, record: dict[str, Any]) -> Path:
        """Crash-safely append one record (see :func:`append_jsonl_line`)."""
        append_jsonl_line(self.path, record)
        return self.path

    def rewrite(self, records: Iterable[dict[str, Any]]) -> None:
        """Atomically replace the whole ledger (compaction/retention)."""
        payload = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".ledger-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def prune(self, keep: int) -> int:
        """Retention: atomically keep only the newest ``keep`` records."""
        if keep < 0:
            raise ValueError("keep must be >= 0")
        records = self.records()
        dropped = max(0, len(records) - keep)
        if dropped:
            self.rewrite(records[dropped:])
        return dropped

    # -- reading -------------------------------------------------------
    def records(self) -> list[dict[str, Any]]:
        """All parseable records in file (= chronological) order.

        Malformed lines — in practice only a truncated final line from
        a crashed append — are skipped, never fatal.
        """
        try:
            text = self.path.read_text()
        except OSError:
            return []
        records = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def resolve(self, selector: str) -> dict[str, Any]:
        """One record by run-id, run-id prefix, or (negative) index.

        ``"-1"`` is the newest run, ``"0"`` the oldest, anything else a
        ``run_id`` (unique prefixes accepted).
        """
        records = self.records()
        if not records:
            raise LookupError("ledger is empty")
        try:
            return records[int(selector)]
        except (ValueError, IndexError):
            pass
        matches = [r for r in records if str(r.get("run_id", "")).startswith(selector)]
        if not matches:
            raise LookupError(f"no ledger record matches {selector!r}")
        if len(matches) > 1 and not any(r.get("run_id") == selector for r in matches):
            raise LookupError(f"ambiguous run selector {selector!r} "
                              f"({len(matches)} matches)")
        exact = [r for r in matches if r.get("run_id") == selector]
        return exact[0] if exact else matches[0]
