#!/usr/bin/env python
"""Validate telemetry artifacts against the checked-in schemas.

The CI telemetry job runs this on the ``metrics.json`` / ``trace.json``
written by ``python -m repro.experiments ... --metrics-out --trace-out``
before uploading them as artifacts, so a schema drift fails loudly in
CI instead of silently shipping malformed telemetry.

Usage (needs ``PYTHONPATH=src`` like the rest of the harness)::

    PYTHONPATH=src python benchmarks/validate_telemetry.py \\
        --metrics metrics.json --trace trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.schema import check

SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"


def validate_file(document_path: str, schema_name: str) -> None:
    with open(document_path) as handle:
        document = json.load(handle)
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    check(document, schema, label=document_path)


def validate_events(events_path: str) -> int:
    """Validate every parseable event line; returns the event count.

    Uses the same tolerant replay as the runtime (a truncated tail from
    a crashed writer is skipped, not fatal) — the schema gate is about
    the events that *did* make it to disk intact.
    """
    from repro.obs.events import read_events

    schema = json.loads((SCHEMA_DIR / "events.schema.json").read_text())
    events = read_events(events_path)
    for index, event in enumerate(events):
        check(event, schema, label=f"{events_path}:event[{index}]")
    if not events:
        raise ValueError("no parseable events (empty or corrupt stream)")
    return len(events)


def validate_audit(stream_path: str) -> int:
    """Validate a packed audit stream's summary; returns the run count.

    Loads the ``.npz`` written by ``--audit-out``, summarises it with
    :func:`repro.obs.audit.audit_document`, and checks the summary
    against ``audit.schema.json``.  An empty stream fails: the CI job
    audits a scheme-simulation experiment, so zero runs means the
    instrumentation went dark.
    """
    from repro.obs import audit

    document = audit.load_audit(stream_path)
    summary = audit.audit_document(
        document["runs"],
        policy=document.get("policy", "full"),
        trace_id=document.get("trace_id", ""),
    )
    schema = json.loads((SCHEMA_DIR / "audit.schema.json").read_text())
    check(summary, schema, label=stream_path)
    if not summary["runs"]:
        raise ValueError("no runs in the audit stream (recorder went dark)")
    return len(summary["runs"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics", help="metrics.json to validate")
    parser.add_argument("--trace", help="trace.json to validate")
    parser.add_argument("--events", metavar="PATH",
                        help="events.jsonl whose lines to validate")
    parser.add_argument("--audit", metavar="PATH",
                        help="packed audit stream (.npz from --audit-out) "
                        "whose summary to validate")
    args = parser.parse_args(argv)
    if not (args.metrics or args.trace or args.events or args.audit):
        parser.error("nothing to validate: pass --metrics, --trace, "
                     "--events and/or --audit")

    failures = 0
    for document_path, schema_name in (
        (args.metrics, "metrics.schema.json"),
        (args.trace, "trace.schema.json"),
    ):
        if not document_path:
            continue
        try:
            validate_file(document_path, schema_name)
        except (OSError, ValueError) as exc:
            print(f"FAIL {document_path}: {exc}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {document_path} conforms to {schema_name}")
    if args.events:
        try:
            count = validate_events(args.events)
        except (OSError, ValueError) as exc:
            print(f"FAIL {args.events}: {exc}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {args.events}: {count} event(s) conform "
                  "to events.schema.json")
    if args.audit:
        try:
            count = validate_audit(args.audit)
        except (OSError, ValueError) as exc:
            print(f"FAIL {args.audit}: {exc}", file=sys.stderr)
            failures += 1
        else:
            print(f"ok   {args.audit}: {count} audit run(s) conform "
                  "to audit.schema.json")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
