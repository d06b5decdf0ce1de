"""The ``python -m repro.experiments progress`` live fleet view.

``--events events.jsonl`` replays the structured event stream a run
appends with ``--events-out`` and renders per-experiment completion
plus a per-worker health table (age of the worker's last event,
in-flight task, completed count).  ``--follow`` re-reads the file on an
interval, so the same command tails a live run — the stream is
append-only JSONL, so a reader never needs coordination with the
writer, and a truncated final line (writer mid-append) is skipped
exactly as on crash replay.  The view is a read-only observer: it never
perturbs the run being watched.
"""

from __future__ import annotations

import argparse
import time
from typing import Any

from repro.obs.events import format_event, read_events


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments progress",
        description="Watch a fleet run via its event stream.",
    )
    parser.add_argument(
        "--events", metavar="PATH", required=True,
        help="events.jsonl written by a run's --events-out",
    )
    parser.add_argument(
        "--follow", action="store_true",
        help="keep re-reading --events until the run ends (or Ctrl-C)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="S",
        help="--follow refresh period (default: 1.0)",
    )
    parser.add_argument(
        "--tail", type=int, default=0, metavar="N",
        help="also print the last N raw events (default: 0)",
    )
    return parser


# ----------------------------------------------------------------------
# event-stream summarisation
# ----------------------------------------------------------------------

def summarize_events(events: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold an event list into run/experiment/worker state.

    Pure and replay-based: the same function serves a finished file and
    a live tail, because every event carries its full context.
    """
    run: dict[str, Any] = {"trace_id": "", "backend": "", "ended": False}
    experiments: dict[str, dict[str, Any]] = {}
    workers: dict[str, dict[str, Any]] = {}
    # experiment -> the worker that started it.  The procpool parent
    # emits ``result``/``crash``/``resubmit`` without a worker, so an
    # ending event closes its experiment's task wherever it runs.
    running: dict[str, str] = {}

    for event in events:
        kind = event.get("kind")
        ts = float(event.get("ts", 0.0))
        eid = event.get("experiment")
        label = event.get("worker")
        if event.get("trace_id"):
            run["trace_id"] = event["trace_id"]
        if kind == "run_start":
            run["backend"] = event.get("backend", "")
            run["total"] = event.get("experiments")
        elif kind == "run_end":
            run["ended"] = True
            run["status"] = event.get("status", "?")
        if eid:
            state = experiments.setdefault(eid, {"status": "scheduled"})
            if kind in ("scheduled", "started"):
                state["status"] = kind
            elif kind == "result":
                state["status"] = str(event.get("status", "done"))
                state["elapsed_s"] = event.get("elapsed_s")
            elif kind in ("crash", "resubmit"):
                state["status"] = kind
        if label:
            row = workers.setdefault(label, {
                "last_ts": 0.0, "inflight": set(), "completed": 0,
            })
            row["last_ts"] = max(row["last_ts"], ts)
            if kind == "started" and eid:
                row["inflight"].add(eid)
                running[eid] = label
        if kind in ("result", "crash", "resubmit") and eid in running:
            row = workers[running.pop(eid)]
            row["inflight"].discard(eid)
            if kind == "result":
                row["completed"] += 1
    return {"run": run, "experiments": experiments, "workers": workers}


def render_summary(
    summary: dict[str, Any], now: float | None = None
) -> str:
    from repro.experiments.report import Table

    run = summary["run"]
    experiments = summary["experiments"]
    workers = summary["workers"]
    now = time.time() if now is None else now
    done = sum(
        1 for s in experiments.values()
        if s["status"] not in ("scheduled", "started", "resubmit")
    )
    lines = []
    header = f"run: {done}/{len(experiments)} experiment(s) finished"
    if run.get("backend"):
        header += f" | backend: {run['backend']}"
    if run.get("trace_id"):
        header += f" | trace: {run['trace_id'][:12]}"
    header += f" | {'ended (' + str(run.get('status')) + ')' if run['ended'] else 'running'}"
    lines.append(header)

    table = Table(
        title="experiments",
        headers=["experiment", "status", "elapsed_s"],
    )
    for eid in sorted(experiments):
        state = experiments[eid]
        table.add_row(eid, state["status"], state.get("elapsed_s", ""))
    lines.append(table.render())

    if workers:
        health = Table(
            title="worker health",
            headers=["worker", "age_s", "inflight", "done"],
        )
        for label in sorted(workers):
            row = workers[label]
            age = max(0.0, now - row["last_ts"]) if row["last_ts"] else float("inf")
            health.add_row(
                label,
                round(age, 1) if age != float("inf") else "-",
                ",".join(sorted(row["inflight"])) or "-",
                row["completed"],
            )
        lines.append(health.render())
    return "\n\n".join(lines)


def _cmd_events(args: argparse.Namespace) -> int:
    while True:
        events = read_events(args.events)
        if not events:
            print(f"no events in {args.events} (yet)")
        else:
            summary = summarize_events(events)
            print(render_summary(summary))
            if args.tail > 0:
                print()
                for event in events[-args.tail:]:
                    print(f"  {format_event(event)}")
            if not args.follow or summary["run"]["ended"]:
                return 0
        if not args.follow:
            return 0
        time.sleep(args.interval)
        print()


def progress_main(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    if args.interval <= 0:
        args.interval = 1.0
    try:
        return _cmd_events(args)
    except KeyboardInterrupt:
        return 0
