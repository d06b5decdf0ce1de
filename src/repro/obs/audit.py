"""Cycle-resolved decision audit: a flight recorder for the schemes.

The aggregate telemetry of :mod:`repro.obs` answers *how many* errors a
scheme saw; this module answers *what happened at cycle N*.  When audit
is enabled every scheme state machine (Razor, HFG, OCST, DCS, Trident)
and :func:`repro.core.scheme_sim.build_error_trace` appends one columnar
record per decision event: the DTA error class, the scheme's decision
(detect/rollback, predict hit, false positive, avoidance, under-stall),
the stall and penalty cycles it charged, a first-occurrence flag, and
the endpoint slack against the clock/hold constraints.

Design rules, mirroring :mod:`repro.obs`:

* **Near-zero cost when off.**  Instrumented loops hoist
  ``sink = audit.get()`` once and pay a single ``None`` check per cycle
  (guarded by the overhead test in ``tests/test_audit.py``); the
  vectorised schemes build their decisions as arrays only when a sink
  is on and hand them over in one :meth:`RunRecorder.decisions` call.
* **Bounded memory.**  A :class:`SamplePolicy` (``full`` /
  ``window:START:LEN`` / ``reservoir:K[:SEED]``) caps what each run
  keeps; reservoir sampling is seeded deterministically from the run's
  identity — never from pid or time — so sampled streams are
  schedule-independent.
* **Deterministic artefacts.**  Workers flush packed ``.npz`` shards
  (``audit-v1-<pid>-<tag>.npz``) that :func:`merge_audit` folds into one
  stream, deduplicating identical run blocks by content digest so
  ``--jobs 1`` and ``--jobs 2`` merge to the same stream.
* **Reports untouched.**  Audit never feeds back into
  :class:`~repro.core.schemes.base.SchemeResult` or report text; an
  audited run's report is byte-identical to an unaudited one.

:func:`replay_counters` reconstructs the ``SchemeResult`` counters of a
run exactly from a full (unsampled) stream — the conservation law the
``audit_vs_result`` QA oracle enforces.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import tempfile
import time
import zlib
from typing import Any

import numpy as np

from repro import obs

#: bump when the shard/stream layout changes; mismatched shards are stale.
AUDIT_VERSION = 1

# ----------------------------------------------------------------------
# decision codes
# ----------------------------------------------------------------------

#: no decision — used by error-trace (``etrace``) runs, which record the
#: classified error without any scheme acting on it.
DEC_NONE = 0
#: detect + rollback + replay (Razor-style flush).
DEC_DETECT = 1
#: a predictive stall that covered a real error.
DEC_PREDICT_HIT = 2
#: a predictive stall charged on a clean cycle.
DEC_FALSE_POSITIVE = 3
#: error pre-empted without a stall (HFG guardband, OCST tuned skew).
DEC_AVOID = 4
#: Trident: the granted stall was insufficient — flush and escalate.
DEC_UNDER_STALL = 5

DECISION_NAMES: dict[int, str] = {
    DEC_NONE: "none",
    DEC_DETECT: "detect",
    DEC_PREDICT_HIT: "predict_hit",
    DEC_FALSE_POSITIVE: "false_positive",
    DEC_AVOID: "avoid",
    DEC_UNDER_STALL: "under_stall",
}

#: column name -> dtype of one audit record (struct-of-arrays layout).
COLUMNS: tuple[tuple[str, str], ...] = (
    ("cycle", "int64"),
    ("err", "int8"),
    ("decision", "int8"),
    ("stall", "int16"),
    ("penalty", "int64"),
    ("novel", "int8"),
    ("slack_late", "float32"),
    ("slack_early", "float32"),
)

#: run-header fields carried alongside the column arrays.
HEADER_FIELDS: tuple[str, ...] = (
    "kind", "scheme", "benchmark", "corner", "base_cycles",
    "clock_period", "hold_constraint", "effective_clock_period",
    "policy", "events_seen", "digest",
)


def stable_audit_seed(*parts: Any) -> int:
    """Deterministic 31-bit seed from hashable parts (crc32, not ``hash``)."""
    return zlib.crc32(repr(parts).encode("utf-8")) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# sampling policies
# ----------------------------------------------------------------------

class SamplePolicy:
    """Parsed audit sampling policy.

    * ``full`` — keep every decision event (clean cycles are implicit).
    * ``window:START:LEN`` — keep events with START <= cycle < START+LEN.
    * ``reservoir:K[:SEED]`` — algorithm-R reservoir of K events, seeded
      from SEED (default 0) combined with the run identity.
    """

    def __init__(self, text: str = "full") -> None:
        parts = str(text).split(":")
        self.mode = parts[0]
        self.window_start = 0
        self.window_len = 0
        self.capacity = 0
        self.seed = 0
        if self.mode == "full":
            if len(parts) != 1:
                raise ValueError(f"bad policy {text!r}: full takes no arguments")
        elif self.mode == "window":
            if len(parts) != 3:
                raise ValueError(f"bad policy {text!r}: want window:START:LEN")
            self.window_start = int(parts[1])
            self.window_len = int(parts[2])
            if self.window_start < 0 or self.window_len <= 0:
                raise ValueError(f"bad policy {text!r}: need START >= 0, LEN > 0")
        elif self.mode == "reservoir":
            if len(parts) not in (2, 3):
                raise ValueError(f"bad policy {text!r}: want reservoir:K[:SEED]")
            self.capacity = int(parts[1])
            self.seed = int(parts[2]) if len(parts) == 3 else 0
            if self.capacity <= 0:
                raise ValueError(f"bad policy {text!r}: need K > 0")
        else:
            raise ValueError(f"unknown audit policy {text!r}")
        self.text = self.describe()

    def describe(self) -> str:
        if self.mode == "window":
            return f"window:{self.window_start}:{self.window_len}"
        if self.mode == "reservoir":
            return f"reservoir:{self.capacity}:{self.seed}"
        return "full"


# ----------------------------------------------------------------------
# per-run recorder
# ----------------------------------------------------------------------

class RunRecorder:
    """Columnar decision buffer for one scheme/etrace simulation."""

    def __init__(
        self,
        policy: SamplePolicy,
        kind: str,
        scheme: str,
        benchmark: str,
        corner: str,
        base_cycles: int,
        clock_period: float,
        hold_constraint: float,
        t_late: np.ndarray | None = None,
        t_early: np.ndarray | None = None,
    ) -> None:
        self.policy = policy
        self.kind = kind
        self.scheme = scheme
        self.benchmark = benchmark
        self.corner = corner
        self.base_cycles = int(base_cycles)
        self.clock_period = float(clock_period)
        self.hold_constraint = float(hold_constraint)
        self.effective_clock_period = float(clock_period)
        self._t_late = t_late
        self._t_early = t_early
        self.events_seen = 0
        self.done = False
        # parallel python lists; packed to arrays at finish()
        self._cycle: list[int] = []
        self._err: list[int] = []
        self._decision: list[int] = []
        self._stall: list[int] = []
        self._penalty: list[int] = []
        self._novel: list[int] = []
        self._rng = None
        if policy.mode == "reservoir":
            self._rng = np.random.default_rng(
                stable_audit_seed(
                    policy.seed, kind, scheme, benchmark, corner, self.base_cycles
                )
            )
        self.columns: dict[str, np.ndarray] = {}
        self.digest = ""

    def decision(
        self,
        cycle: int,
        err: int,
        decision: int,
        stall: int = 0,
        penalty: int = 0,
        novel: bool = False,
    ) -> None:
        """Record one decision event (sampling applied per policy)."""
        seen = self.events_seen
        self.events_seen = seen + 1
        policy = self.policy
        if policy.mode == "window":
            if not (policy.window_start <= cycle < policy.window_start + policy.window_len):
                return
        elif policy.mode == "reservoir":
            if seen >= policy.capacity:
                slot = int(self._rng.integers(0, seen + 1))
                if slot >= policy.capacity:
                    return
                self._cycle[slot] = int(cycle)
                self._err[slot] = int(err)
                self._decision[slot] = int(decision)
                self._stall[slot] = int(stall)
                self._penalty[slot] = int(penalty)
                self._novel[slot] = int(bool(novel))
                return
        self._cycle.append(int(cycle))
        self._err.append(int(err))
        self._decision.append(int(decision))
        self._stall.append(int(stall))
        self._penalty.append(int(penalty))
        self._novel.append(int(bool(novel)))

    def decisions(
        self,
        cycles: np.ndarray,
        err: np.ndarray,
        decision: np.ndarray | int,
        stall: np.ndarray | int = 0,
        penalty: np.ndarray | int = 0,
        novel: np.ndarray | bool = False,
    ) -> None:
        """Record a batch of decision events given in cycle order.

        Same columns, digest and ``events_seen`` as one :meth:`decision`
        call per event; scalar fields apply to every event.
        """
        cycles = np.asarray(cycles, dtype=np.int64)
        n = len(cycles)
        err, decision, stall, penalty = (
            np.broadcast_to(np.asarray(col, dtype=np.int64), (n,))
            for col in (err, decision, stall, penalty)
        )
        novel = np.broadcast_to(np.asarray(novel, dtype=bool), (n,)).astype(np.int64)
        policy = self.policy
        if policy.mode == "reservoir":  # one RNG draw per event, in order
            for row in zip(
                *(col.tolist() for col in (cycles, err, decision, stall, penalty, novel))
            ):
                self.decision(*row)
            return
        self.events_seen += n
        if policy.mode == "window":
            keep = (cycles >= policy.window_start) & (
                cycles < policy.window_start + policy.window_len
            )
            cycles, err, decision, stall, penalty, novel = (
                col[keep] for col in (cycles, err, decision, stall, penalty, novel)
            )
        self._cycle.extend(cycles.tolist())
        self._err.extend(err.tolist())
        self._decision.extend(decision.tolist())
        self._stall.extend(stall.tolist())
        self._penalty.extend(penalty.tolist())
        self._novel.extend(novel.tolist())

    def finish(self, effective_clock_period: float | None = None) -> "RunRecorder":
        """Pack the buffers into sorted column arrays and seal the run."""
        if self.done:
            return self
        if effective_clock_period is not None:
            self.effective_clock_period = float(effective_clock_period)
        cycle = np.asarray(self._cycle, dtype=np.int64)
        order = np.argsort(cycle, kind="stable")
        self.columns = {
            "cycle": cycle[order],
            "err": np.asarray(self._err, dtype=np.int8)[order],
            "decision": np.asarray(self._decision, dtype=np.int8)[order],
            "stall": np.asarray(self._stall, dtype=np.int16)[order],
            "penalty": np.asarray(self._penalty, dtype=np.int64)[order],
            "novel": np.asarray(self._novel, dtype=np.int8)[order],
        }
        kept = self.columns["cycle"]
        if self._t_late is not None and len(self._t_late):
            idx = np.clip(kept, 0, len(self._t_late) - 1)
            slack_late = self.clock_period - np.asarray(self._t_late)[idx]
            slack_early = np.asarray(self._t_early)[idx] - self.hold_constraint
        else:
            slack_late = np.zeros(len(kept))
            slack_early = np.zeros(len(kept))
        self.columns["slack_late"] = slack_late.astype(np.float32)
        self.columns["slack_early"] = slack_early.astype(np.float32)
        self._cycle = self._err = self._decision = []
        self._stall = self._penalty = self._novel = []
        self._t_late = self._t_early = None
        self.digest = _digest_columns(self.columns)
        self.done = True
        if obs.enabled():
            obs.inc("audit.runs", kind=self.kind)
            obs.inc("audit.records", len(kept), kind=self.kind)
        return self

    def to_block(self) -> dict[str, Any]:
        """The serialisable run block (header fields + column arrays)."""
        block: dict[str, Any] = {
            "kind": self.kind,
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "corner": self.corner,
            "base_cycles": self.base_cycles,
            "clock_period": self.clock_period,
            "hold_constraint": self.hold_constraint,
            "effective_clock_period": self.effective_clock_period,
            "policy": self.policy.text,
            "events_seen": self.events_seen,
            "digest": self.digest,
            "columns": dict(self.columns),
        }
        return block


def _digest_columns(columns: dict[str, np.ndarray]) -> str:
    hasher = hashlib.sha256()
    for name, _dtype in COLUMNS:
        hasher.update(np.ascontiguousarray(columns[name]).tobytes())
    return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# process-level recorder (shard writer)
# ----------------------------------------------------------------------

class AuditRecorder:
    """Per-process audit sink accumulating finished run blocks."""

    def __init__(
        self,
        policy: str | SamplePolicy = "full",
        shard_dir: str | None = None,
        trace_id: str = "",
    ) -> None:
        self.policy = policy if isinstance(policy, SamplePolicy) else SamplePolicy(policy)
        self.shard_dir = shard_dir
        self.trace_id = trace_id
        self.pid = os.getpid()
        self._shard_tag = time.time_ns()
        self.runs: list[RunRecorder] = []

    def begin_run(
        self,
        kind: str,
        scheme: str,
        benchmark: str,
        corner: str,
        base_cycles: int,
        clock_period: float,
        hold_constraint: float,
        t_late: np.ndarray | None = None,
        t_early: np.ndarray | None = None,
    ) -> RunRecorder:
        run = RunRecorder(
            self.policy,
            kind,
            scheme,
            benchmark,
            corner,
            base_cycles,
            clock_period,
            hold_constraint,
            t_late=t_late,
            t_early=t_early,
        )
        self.runs.append(run)
        return run

    def begin_scheme_run(self, scheme_name: str, trace: Any) -> RunRecorder:
        """Convenience entry point for the scheme state machines."""
        return self.begin_run(
            kind="scheme",
            scheme=scheme_name,
            benchmark=trace.benchmark,
            corner=trace.corner,
            base_cycles=len(trace),
            clock_period=trace.clock_period,
            hold_constraint=trace.hold_constraint,
            t_late=trace.t_late,
            t_early=trace.t_early,
        )

    def snapshot_runs(self) -> list[dict[str, Any]]:
        """Finished run blocks (unfinished runs are skipped, not broken)."""
        return [run.to_block() for run in self.runs if run.done]

    def shard_path(self) -> str | None:
        if self.shard_dir is None:
            return None
        name = f"audit-v{AUDIT_VERSION}-{self.pid}-{self._shard_tag}.npz"
        return os.path.join(self.shard_dir, name)

    def flush(self) -> None:
        """Atomically (re)write this process's shard; never raises."""
        path = self.shard_path()
        if path is None:
            return
        try:
            _write_npz(path, {
                "version": AUDIT_VERSION,
                "pid": self.pid,
                "trace_id": self.trace_id,
                "policy": self.policy.text,
            }, self.snapshot_runs())
        except Exception:
            # Telemetry must never take down a run; a missing shard just
            # reduces audit coverage (and is reported as stale on scan).
            pass


def _write_npz(path: str, header: dict[str, Any], runs: list[dict[str, Any]]) -> None:
    header = dict(header)
    header["runs"] = [
        {field: run[field] for field in HEADER_FIELDS} for run in runs
    ]
    payload: dict[str, np.ndarray] = {
        "__header__": np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
    }
    for index, run in enumerate(runs):
        for name, dtype in COLUMNS:
            payload[f"r{index}/{name}"] = np.asarray(run["columns"][name], dtype=dtype)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_npz(path: str) -> dict[str, Any]:
    with np.load(path) as data:
        header = json.loads(bytes(data["__header__"].tobytes()).decode("utf-8"))
        runs: list[dict[str, Any]] = []
        for index, run_header in enumerate(header.get("runs", [])):
            run = dict(run_header)
            run["columns"] = {
                name: np.array(data[f"r{index}/{name}"], dtype=dtype)
                for name, dtype in COLUMNS
            }
            runs.append(run)
    header["runs"] = runs
    return header


# ----------------------------------------------------------------------
# shard scan / merge / stream IO
# ----------------------------------------------------------------------

_SHARD_NAME = re.compile(r"^audit-v(\d+)-(\d+)-\d+\.npz$")


def scan_audit_shards(shard_dir: str) -> tuple[list[dict[str, Any]], int]:
    """Load every current-version audit shard under ``shard_dir``.

    Returns ``(documents, stale)`` where ``stale`` counts shards whose
    filename or header version/pid did not line up (leftovers from an
    older layout or a recycled pid) — skipped, like ``obs.scan_shards``.
    """
    documents: list[dict[str, Any]] = []
    stale = 0
    try:
        names = sorted(os.listdir(shard_dir))
    except OSError:
        return [], 0
    for name in names:
        match = _SHARD_NAME.match(name)
        if match is None:
            continue
        if int(match.group(1)) != AUDIT_VERSION:
            stale += 1
            continue
        path = os.path.join(shard_dir, name)
        try:
            document = _read_npz(path)
        except Exception:
            stale += 1
            continue
        if document.get("version") != AUDIT_VERSION:
            stale += 1
            continue
        if int(document.get("pid", -1)) != int(match.group(2)):
            stale += 1
            continue
        documents.append(document)
    return documents, stale


def _run_key(run: dict[str, Any]) -> tuple:
    return (
        str(run.get("kind", "")),
        str(run.get("scheme", "")),
        str(run.get("benchmark", "")),
        str(run.get("corner", "")),
        int(run.get("base_cycles", 0)),
        str(run.get("policy", "")),
        str(run.get("digest", "")),
    )


def merge_audit(documents: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Fold shard documents into one deduplicated, deterministic stream.

    Identical run blocks (same identity *and* content digest) collapse to
    one — a serial run memoises each simulation while parallel workers
    re-simulate per task, so deduplication is what makes the merged
    stream schedule-independent.  Output order is the sorted run key.
    """
    by_key: dict[tuple, dict[str, Any]] = {}
    for document in documents:
        for run in document.get("runs", []):
            by_key.setdefault(_run_key(run), run)
    return [by_key[key] for key in sorted(by_key)]


def write_audit(path: str, runs: list[dict[str, Any]],
                trace_id: str = "", policy: str = "full") -> None:
    """Write a merged audit stream as one packed ``.npz`` (atomic)."""
    _write_npz(path, {
        "version": AUDIT_VERSION,
        "pid": os.getpid(),
        "trace_id": trace_id,
        "policy": policy,
    }, runs)


def load_audit(path: str) -> dict[str, Any]:
    """Load a merged audit stream written by :func:`write_audit`."""
    document = _read_npz(path)
    if document.get("version") != AUDIT_VERSION:
        raise ValueError(
            f"{path}: audit version {document.get('version')} != {AUDIT_VERSION}"
        )
    return document


# ----------------------------------------------------------------------
# replay / export / rollup
# ----------------------------------------------------------------------

def replay_counters(run: dict[str, Any]) -> dict[str, Any]:
    """Reconstruct the ``SchemeResult`` counters from a full scheme run.

    Only a ``policy=full`` scheme run carries every decision, so only
    there is exact reconstruction possible — the conservation law the
    ``audit_vs_result`` oracle checks.
    """
    if run.get("kind") != "scheme":
        raise ValueError(f"cannot replay counters of a {run.get('kind')!r} run")
    if run.get("policy") != "full":
        raise ValueError(
            f"exact replay needs policy=full, got {run.get('policy')!r}"
        )
    columns = run["columns"]
    decision = columns["decision"]
    flushes = int(((decision == DEC_DETECT) | (decision == DEC_UNDER_STALL)).sum())
    predicted = int(((decision == DEC_PREDICT_HIT) | (decision == DEC_AVOID)).sum())
    false_positives = int((decision == DEC_FALSE_POSITIVE).sum())
    return {
        "scheme": run["scheme"],
        "benchmark": run["benchmark"],
        "base_cycles": int(run["base_cycles"]),
        "penalty_cycles": int(columns["penalty"].sum()),
        "effective_clock_period": float(run["effective_clock_period"]),
        "errors_total": predicted + flushes,
        "errors_predicted": predicted,
        "errors_missed": flushes,
        "false_positives": false_positives,
        "stalls": int(columns["stall"].sum()),
        "flushes": flushes,
        "unique_instances": int(columns["novel"].sum()),
    }


def run_label(run: dict[str, Any]) -> str:
    """Human-readable run identity for CLI / trace output."""
    who = run.get("scheme") or "etrace"
    return f"{who}:{run.get('benchmark', '?')}@{run.get('corner', '?')}"


def audit_trace_document(runs: list[dict[str, Any]], trace_id: str = "") -> dict[str, Any]:
    """Perfetto-loadable trace: one thread lane per run, instant events
    per decision, and a cumulative penalty counter track.

    Timestamps are the simulated cycle numbers (1 cycle = 1 us in the
    viewer), riding the run's ``trace_id`` like the span traces of PR 8.
    """
    if not runs:
        raise ValueError("no audit runs to export")
    events: list[dict[str, Any]] = []
    for tid, run in enumerate(runs):
        events.append({
            "name": "thread_name", "ph": "M", "ts": 0, "pid": 0, "tid": tid,
            "args": {"name": run_label(run)},
        })
        columns = run["columns"]
        cumulative = 0
        for row in range(len(columns["cycle"])):
            code = int(columns["decision"][row])
            cycle = int(columns["cycle"][row])
            events.append({
                "name": DECISION_NAMES.get(code, str(code)),
                "cat": "audit",
                "ph": "i",
                "ts": cycle,
                "pid": 0,
                "tid": tid,
                "args": {
                    "err": int(columns["err"][row]),
                    "stall": int(columns["stall"][row]),
                    "penalty": int(columns["penalty"][row]),
                    "slack_late_ps": float(columns["slack_late"][row]),
                },
            })
            cumulative += int(columns["penalty"][row])
            events.append({
                "name": f"penalty:{run_label(run)}",
                "ph": "C", "ts": cycle, "pid": 0, "tid": tid,
                "args": {"cycles": cumulative},
            })
    return obs.trace_document(events, trace_id=trace_id)


def audit_document(runs: list[dict[str, Any]], policy: str = "full",
                   trace_id: str = "") -> dict[str, Any]:
    """JSON summary of a stream (what ``audit.schema.json`` validates)."""
    summaries = []
    for run in runs:
        decision = run["columns"]["decision"]
        summaries.append({
            "kind": str(run["kind"]),
            "scheme": str(run["scheme"]),
            "benchmark": str(run["benchmark"]),
            "corner": str(run["corner"]),
            "base_cycles": int(run["base_cycles"]),
            "policy": str(run["policy"]),
            "records": int(len(decision)),
            "events_seen": int(run["events_seen"]),
            "digest": str(run["digest"]),
            "decisions": {
                name: int((decision == code).sum())
                for code, name in DECISION_NAMES.items()
            },
        })
    return {
        "version": AUDIT_VERSION,
        "policy": policy,
        "trace_id": trace_id,
        "runs": summaries,
    }


#: timeline glyphs by decision code, in increasing severity.
_TIMELINE_SEVERITY: tuple[tuple[int, str], ...] = (
    (DEC_NONE, "e"),  # an observed errant cycle (etrace runs)
    (DEC_AVOID, "a"),
    (DEC_PREDICT_HIT, "p"),
    (DEC_FALSE_POSITIVE, "f"),
    (DEC_DETECT, "D"),
    (DEC_UNDER_STALL, "U"),
)

#: width of the dashboard/ledger timeline strings, in buckets.
TIMELINE_BUCKETS = 96


def decision_timeline(run: dict[str, Any], buckets: int = TIMELINE_BUCKETS) -> str:
    """Bucketed severity string of a run ('.'=quiet, worst glyph wins)."""
    base = max(int(run.get("base_cycles", 0)), 1)
    buckets = max(1, min(buckets, base))
    columns = run["columns"]
    glyphs = ["."] * buckets
    severity = [0] * buckets
    rank = {code: index + 1 for index, (code, _g) in enumerate(_TIMELINE_SEVERITY)}
    glyph = {code: g for code, g in _TIMELINE_SEVERITY}
    for row in range(len(columns["cycle"])):
        code = int(columns["decision"][row])
        level = rank.get(code, 0)
        if level == 0:
            continue
        bucket = min(int(columns["cycle"][row]) * buckets // base, buckets - 1)
        if level > severity[bucket]:
            severity[bucket] = level
            glyphs[bucket] = glyph[code]
    return "".join(glyphs)


def audit_rollup(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-scheme decision rollup for the run-ledger ``audit`` section."""
    schemes: dict[str, dict[str, Any]] = {}
    policy = ""
    records = 0
    for run in runs:
        policy = policy or str(run.get("policy", ""))
        columns = run["columns"]
        records += len(columns["decision"])
        if run.get("kind") != "scheme":
            continue
        entry = schemes.setdefault(str(run["scheme"]), {
            "records": 0, "detect": 0, "predict": 0, "false_positive": 0,
            "avoid": 0, "under_stall": 0, "penalty_cycles": 0, "timeline": "",
        })
        decision = columns["decision"]
        entry["records"] += len(decision)
        entry["detect"] += int((decision == DEC_DETECT).sum())
        entry["predict"] += int((decision == DEC_PREDICT_HIT).sum())
        entry["false_positive"] += int((decision == DEC_FALSE_POSITIVE).sum())
        entry["avoid"] += int((decision == DEC_AVOID).sum())
        entry["under_stall"] += int((decision == DEC_UNDER_STALL).sum())
        entry["penalty_cycles"] += int(columns["penalty"].sum())
        if not entry["timeline"]:
            entry["timeline"] = decision_timeline(run)
    return {
        "policy": policy,
        "runs": len(runs),
        "records": records,
        "schemes": {name: schemes[name] for name in sorted(schemes)},
    }


# ----------------------------------------------------------------------
# process lifecycle (mirrors repro.obs)
# ----------------------------------------------------------------------

#: the process-global audit sink; ``None`` means audit is off.
_sink: AuditRecorder | None = None


def enable(recorder: AuditRecorder) -> AuditRecorder:
    """Install ``recorder`` as this process's audit sink."""
    global _sink
    _sink = recorder
    return recorder


def disable() -> None:
    """Turn audit off (the default state)."""
    global _sink
    _sink = None


def enabled() -> bool:
    return _sink is not None


@contextlib.contextmanager
def recording(policy: str = "full"):
    """A fresh recorder as the sink for a block; the previous sink after."""
    previous = _sink
    try:
        yield enable(AuditRecorder(policy=policy))
    finally:
        if previous is None:
            disable()
        else:
            enable(previous)


def get() -> AuditRecorder | None:
    """The hot-path accessor: hoist into a local before a cycle loop."""
    return _sink


def ensure_worker(
    shard_dir: str | None,
    policy: str | None = "full",
    trace_id: str = "",
) -> AuditRecorder | None:
    """Give a worker process its own audit recorder (fork-safe).

    Like :func:`repro.obs.ensure_worker`: an inherited recorder whose pid
    is not ours would replay the parent's history into the worker's
    shard, so it is replaced; ``shard_dir=None`` (audit off) drops any
    inherited recorder.
    """
    global _sink
    if shard_dir is None:
        if _sink is not None and _sink.pid != os.getpid():
            _sink = None
        return None
    sink = _sink
    if sink is not None and sink.pid == os.getpid():
        return sink
    return enable(AuditRecorder(
        policy=policy or "full", shard_dir=shard_dir, trace_id=trace_id,
    ))


def flush_worker() -> None:
    """Rewrite the current worker's audit shard (idempotent, never raises)."""
    sink = _sink
    if sink is not None and sink.shard_dir is not None:
        sink.flush()
