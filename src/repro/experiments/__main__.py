"""Command-line entry point: regenerate any (or all) paper figures.

Runs are supervised by :mod:`repro.runtime`: an exception in one
experiment is contained as a failure record while the remaining
experiments still run, a pass/fail summary prints at the end, and the
exit code is non-zero only if something failed.  With
``--checkpoint-dir`` the expensive artefacts (fabricated chips, error
traces) persist across invocations, so an interrupted ``all`` run
resumes in seconds.

With ``--jobs N`` (default: one per CPU) experiments fan out across a
process pool: shared artefacts are prefetched in parallel through the
checkpoint store, outcomes merge deterministically in submission order,
and a killed worker degrades to a single failure record.  ``--jobs 1``
runs every experiment serially in this process; anything wider runs
the process pool.  :func:`repro.runtime.backends.run_experiments` is
the one place that choice is made, and whichever path runs, the report
is bit-identical.

Examples::

    python -m repro.experiments fig3_10
    python -m repro.experiments all --cycles 50000
    python -m repro.experiments fig4_8 fig4_9 --fast --out results.txt
    python -m repro.experiments all --fast --checkpoint-dir .ckpt --retries 1
    python -m repro.experiments all --fast --jobs 4   # parallel fan-out
    python -m repro.experiments all --fast --chaos-fail fig3_9   # self-test
    python -m repro.experiments all --fast --jobs 4 \
        --metrics-out metrics.json --trace-out trace.json  # telemetry

With ``--metrics-out`` / ``--trace-out`` / ``--profile`` the run is
instrumented end to end (see :mod:`repro.obs`): counters, gauges and
span histograms merge across workers into ``metrics.json``, every phase
becomes a Chrome trace event viewable in Perfetto (``trace.json``), and
``--profile`` captures cProfile stats for the slowest spans.  A summary
table of the hottest spans prints at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace

from repro import obs
from repro.experiments.config import DEFAULT_CONFIG, FAST_CONFIG
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.reportio import atomic_write_text, render_report
from repro.runtime import (
    CheckpointStore,
    RunOutcome,
    WorkerSpec,
    configure_logging,
    default_jobs,
)
from repro.runtime.backends import run_experiments
from repro.runtime.log import get_logger

logger = get_logger("cli")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(sorted(EXPERIMENTS))}) or 'all'",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="scaled-down configuration (16-bit ALU, short traces)",
    )
    parser.add_argument("--cycles", type=int, help="override trace length")
    parser.add_argument("--width", type=int, help="override ALU width")
    parser.add_argument("--out", help="also write the report to this file")
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format for --out (stdout always prints text)",
    )
    runtime = parser.add_argument_group("resilient runtime")
    runtime.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for experiment fan-out "
        "(0 = one per CPU, 1 = serial; default: 0)",
    )
    runtime.add_argument(
        "--checkpoint-dir",
        help="persist chips/error traces here and resume from previous runs",
    )
    runtime.add_argument(
        "--no-resume",
        action="store_true",
        help="ignore existing checkpoints (recompute, but still refresh the store)",
    )
    runtime.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-run a failed experiment up to N extra times",
    )
    runtime.add_argument(
        "--timeout-s",
        type=float,
        metavar="S",
        help="per-experiment wall-clock budget; overruns become timeout failures",
    )
    runtime.add_argument(
        "--chaos-fail",
        action="append",
        default=[],
        metavar="ID",
        help="self-test: inject a failure into this experiment (repeatable)",
    )
    runtime.add_argument(
        "--chaos-kill",
        action="append",
        default=[],
        metavar="ID",
        help="self-test: kill the worker running this experiment "
        "(requires --jobs >= 2; repeatable)",
    )
    runtime.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help="runtime logging (-v info, -vv debug)",
    )
    telemetry = parser.add_argument_group(
        "telemetry (any of these flags switches telemetry on)"
    )
    telemetry.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write merged counters/gauges/histograms as JSON",
    )
    telemetry.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace-event JSON (chrome://tracing / Perfetto)",
    )
    telemetry.add_argument(
        "--profile",
        metavar="PATH",
        help="capture cProfile stats per span; write the slowest spans here",
    )
    telemetry.add_argument(
        "--profile-top",
        type=int,
        default=5,
        metavar="N",
        help="how many slowest spans keep their profiles (default: 5)",
    )
    telemetry.add_argument(
        "--events-out",
        metavar="PATH",
        help="append the structured lifecycle event stream (JSONL) here; "
        "tail it live with the 'progress' subcommand",
    )
    telemetry.add_argument(
        "--audit-out",
        metavar="PATH",
        help="write the merged cycle-audit stream (.npz) here; inspect it "
        "with the 'audit' subcommand family",
    )
    telemetry.add_argument(
        "--audit-policy",
        default="full",
        metavar="POLICY",
        help="audit sampling policy: full, window:START:LEN, or "
        "reservoir:K[:SEED] (default: full)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "qa":
        from repro.qa.cli import qa_main

        return qa_main(argv[1:])
    if argv and argv[0] == "progress":
        from repro.experiments.progress_cli import progress_main

        return progress_main(argv[1:])
    if argv and argv[0] == "audit":
        from repro.experiments.audit_cli import audit_main

        return audit_main(argv[1:])
    parser = _build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose)

    # `is not None` so an explicit 0 reaches ExperimentConfig validation
    # instead of being silently ignored.
    config = FAST_CONFIG if args.fast else DEFAULT_CONFIG
    try:
        if args.cycles is not None:
            config = replace(config, cycles=args.cycles)
        if args.width is not None:
            config = replace(config, width=args.width)
    except ValueError as exc:
        parser.error(f"invalid configuration: {exc}")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.timeout_s is not None and args.timeout_s <= 0:
        parser.error("--timeout-s must be positive")
    if args.jobs < 0:
        parser.error("--jobs must be >= 0")
    if args.profile_top < 1:
        parser.error("--profile-top must be >= 1")
    jobs = args.jobs or default_jobs()

    ids = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    for experiment_id in ids:
        if experiment_id not in EXPERIMENTS:
            parser.error(f"unknown experiment {experiment_id!r}")
    for experiment_id in args.chaos_fail:
        if experiment_id not in EXPERIMENTS:
            parser.error(f"unknown --chaos-fail experiment {experiment_id!r}")
    for experiment_id in args.chaos_kill:
        if experiment_id not in EXPERIMENTS:
            parser.error(f"unknown --chaos-kill experiment {experiment_id!r}")
    if args.chaos_kill and jobs < 2:
        parser.error("--chaos-kill requires --jobs >= 2 (it takes a worker down)")

    from repro.obs import audit

    try:
        audit_policy = audit.SamplePolicy(args.audit_policy).text
    except ValueError as exc:
        parser.error(str(exc))
    # Metrics are on iff any metrics flag was given.  The cycle audit
    # never implies metrics and never feeds back into the report
    # (byte-identity audit on/off).  Telemetry is installed before the
    # store so checkpoint counters are captured.
    metrics_on = bool(args.metrics_out or args.trace_out or args.profile)
    # Every instrumented run gets a trace id: it stamps spans, rides the
    # WorkerSpec into every worker, tags each structured event, and
    # heads the audit stream — one key linking all the run's
    # artefacts.  Workers flush their shards into one directory the
    # merge reads back.
    instrumented = bool(metrics_on or args.events_out or args.audit_out)
    trace_id = obs.new_trace_id() if instrumented else ""
    shard_dir = None
    if (metrics_on or args.audit_out) and jobs != 1:
        shard_dir = tempfile.mkdtemp(prefix="repro-telemetry-")
    telemetry_spec = obs.TelemetrySpec(
        metrics=metrics_on,
        profile=bool(args.profile),
        profile_top=args.profile_top,
        events_path=args.events_out or None,
        audit_policy=audit_policy if args.audit_out else None,
        trace_id=trace_id,
        shard_dir=shard_dir,
    )
    if args.events_out:
        try:  # a fresh run starts a fresh stream (the log appends)
            os.unlink(args.events_out)
        except OSError:
            pass
    telemetry = obs.install(obs.Telemetry(telemetry_spec)) if instrumented else None

    store = None
    if args.checkpoint_dir:
        store = CheckpointStore(args.checkpoint_dir, resume=not args.no_resume)
        logger.info(
            "checkpoint store at %s (%d entries, resume=%s)",
            store.root, len(store), store.resume,
        )

    def report_outcome(outcome: RunOutcome) -> None:
        if outcome.result is not None:
            print(outcome.result.to_text())
            print(f"[{outcome.experiment_id} completed in {outcome.elapsed_s:.1f}s]\n")
        else:
            assert outcome.failure is not None
            print(
                f"[{outcome.experiment_id} FAILED after {outcome.elapsed_s:.1f}s "
                f"({outcome.failure.kind}): {outcome.failure.error_type}: "
                f"{outcome.failure.message}]\n"
            )

    spec = WorkerSpec(
        config=config,
        checkpoint_dir=args.checkpoint_dir,
        resume=not args.no_resume,
        retries=args.retries,
        timeout_s=args.timeout_s,
        chaos_fail=tuple(args.chaos_fail),
        chaos_kill=tuple(args.chaos_kill),
        verbose=args.verbose,
        telemetry=telemetry_spec,
    )
    merged = obs.MergedTelemetry()
    try:
        report, worker_stats = run_experiments(
            ids, spec, jobs, on_outcome=report_outcome
        )
        obs.emit(
            "run_end",
            status="ok" if report.ok else "failed",
            ok=len(report.outcomes) - len(report.failures),
            total=len(report.outcomes),
        )
        # Fold the parent's channels and every worker's shards into the
        # final documents before any reporting happens.
        if telemetry is not None:
            merged = telemetry.merge()
    finally:
        if telemetry is not None:
            obs.uninstall()
        if shard_dir is not None:
            shutil.rmtree(shard_dir, ignore_errors=True)
    if store is not None:
        store.stats.merge(worker_stats)
    if merged.stale:
        logger.warning("skipped %d stale telemetry shard(s)", merged.stale)
    metrics_doc = merged.metrics
    if telemetry is not None and telemetry.events is not None:
        # count the file, not this process's log: workers append their
        # own events to it
        print(f"events written to {args.events_out} "
              f"({len(obs.read_events(args.events_out))} event(s))")

    audit_write_failed = False
    if merged.audit_runs is not None:
        try:
            audit.write_audit(
                args.audit_out, merged.audit_runs,
                trace_id=trace_id, policy=audit_policy,
            )
        except OSError as exc:
            audit_write_failed = True
            logger.error("could not write audit stream to %s: %s",
                         args.audit_out, exc)
            print(f"[audit stream NOT written to {args.audit_out}: {exc}]")
        else:
            records = sum(len(run["columns"]["decision"])
                          for run in merged.audit_runs)
            print(f"audit stream written to {args.audit_out} "
                  f"({len(merged.audit_runs)} run(s), {records} record(s))")

    report_write_failed = False
    if args.out:
        payload = render_report(report, args.format)
        try:
            atomic_write_text(args.out, payload)
        except OSError as exc:
            report_write_failed = True
            logger.error("could not write report to %s: %s", args.out, exc)
            print(f"[report NOT written to {args.out}: {exc}]")
        else:
            print(f"report written to {args.out}")

    for path, payload, label in (
        (args.metrics_out,
         json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n"
         if metrics_doc is not None else None, "metrics"),
        (args.trace_out,
         json.dumps(merged.trace) + "\n" if merged.trace is not None else None,
         "trace"),
        (args.profile,
         obs.profile_report(merged.profiles, args.profile_top)
         if metrics_doc is not None else None,
         "profile"),
    ):
        if not path or payload is None:
            continue
        try:
            atomic_write_text(path, payload)
        except OSError as exc:
            report_write_failed = True
            logger.error("could not write %s to %s: %s", label, path, exc)
            print(f"[{label} NOT written to {path}: {exc}]")
        else:
            print(f"{label} written to {path}")

    print(report.summary_text())
    if metrics_doc is not None:
        print(obs.summary_table(metrics_doc))
    if store is not None:
        # hit/miss/claim counters for the -v summary line: sourced from
        # the merged metrics registry when telemetry is on (it already
        # folds every worker's counters in), else from the store stats.
        counts = store.stats.as_dict()
        if metrics_doc is not None:
            counters = metrics_doc["counters"]
            counts = {
                name: int(counters.get(f"checkpoint.{name}", 0))
                for name in counts
            }
        print(
            f"[checkpoints: {counts['hits']} hits, {counts['misses']} misses, "
            f"{counts['stores']} stored, {counts['corrupt']} corrupt | "
            f"claims: {counts['claims_won']} won, "
            f"{counts['claims_waited']} waited, "
            f"{counts['claims_broken']} broken]"
        )
    for failure in report.failures:
        logger.debug("traceback for %s:\n%s", failure.experiment_id, failure.traceback)
    if report_write_failed or audit_write_failed:
        return 1
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
