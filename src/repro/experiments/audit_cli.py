"""The ``python -m repro.experiments audit {why,timeline,export}`` family.

Thin argparse front-end over :mod:`repro.obs.audit`:

* ``why`` — cycle-level provenance: what error hit at cycle N, which
  gate is to blame, and what each scheme decided.  Three sources
  compose: ``--audit STREAM`` looks decisions up in a recorded stream,
  ``--experiment ID`` recomputes the gate-level blame by replaying the
  cycle's input transition through :func:`analyze_choke_event`, and
  ``--fixture`` runs the whole chain on the hand-computed forced-choke
  circuit from :mod:`repro.qa.circuits` (self-contained — the
  acceptance demo).
* ``timeline`` — per-run bucketed decision-severity strings: where in
  the trace each run's worst decisions fell.
* ``export`` — Perfetto trace of a stream (instant events per decision
  plus a cumulative penalty counter track).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.obs import audit


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments audit",
        description="Inspect cycle-audit streams: blame, timelines, export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    why = sub.add_parser("why", help="explain the decision chain at one cycle")
    why.add_argument("--audit", metavar="STREAM",
                     help="merged audit stream (.npz) from --audit-out")
    why.add_argument("--cycle", type=int, metavar="N",
                     help="simulated cycle to explain")
    why.add_argument("--scheme", help="only show this scheme's decision")
    why.add_argument("--fixture", action="store_true",
                     help="self-contained demo on the forced-choke QA circuit")
    why.add_argument("--experiment", metavar="ID",
                     help="recompute gate-level blame by replaying this "
                     "experiment's input transition at --cycle")
    why.add_argument("--benchmark", default="mcf",
                     help="benchmark trace for --experiment (default: mcf)")
    why.add_argument("--corner", default="NTC",
                     help="operating corner for --experiment (default: NTC)")
    why.add_argument("--chip-seed", type=int, metavar="K",
                     help="fabrication seed for --experiment "
                     "(default: the config's ch3 chip seed)")
    why.add_argument("--fast", action="store_true",
                     help="use the scaled-down configuration for --experiment")
    why.add_argument("--checkpoint-dir",
                     help="reuse cached chips/traces for --experiment")

    timeline = sub.add_parser("timeline",
                              help="bucketed decision timelines of a stream")
    timeline.add_argument("--audit", required=True, metavar="STREAM")
    timeline.add_argument("--scheme", help="only show this scheme's runs")

    export = sub.add_parser("export", help="write a Perfetto trace of a stream")
    export.add_argument("--audit", required=True, metavar="STREAM")
    export.add_argument("--trace-out", required=True, metavar="PATH",
                        help="Perfetto/chrome://tracing JSON destination")
    return parser


def _fmt_record(run: dict, row: int) -> str:
    columns = run["columns"]
    code = int(columns["decision"][row])
    name = audit.DECISION_NAMES.get(code, str(code))
    parts = [name]
    if columns["stall"][row]:
        parts.append(f"stall {int(columns['stall'][row])}")
    if columns["penalty"][row]:
        parts.append(f"penalty {int(columns['penalty'][row])}")
    if columns["novel"][row]:
        parts.append("novel")
    detail = ", ".join(parts[1:])
    slack = float(columns["slack_late"][row])
    return (f"{name}" + (f" ({detail})" if detail else "")
            + f" | err class {int(columns['err'][row])}"
            + f" | slack_late {slack:+.1f} ps")


def _stream_why(stream_path: str, cycle: int, scheme: str | None) -> list[str]:
    document = audit.load_audit(stream_path)
    lines: list[str] = []
    for run in document["runs"]:
        if scheme and run.get("scheme") != scheme:
            continue
        cycles = run["columns"]["cycle"]
        rows = np.flatnonzero(cycles == cycle)
        label = audit.run_label(run)
        if len(rows) == 0:
            if len(cycles):
                nearest = int(cycles[np.argmin(np.abs(cycles - cycle))])
                lines.append(f"  {label}: no record at cycle {cycle} "
                             f"(nearest recorded: {nearest})")
            else:
                lines.append(f"  {label}: empty run")
            continue
        for row in rows:
            lines.append(f"  {label}: {_fmt_record(run, int(row))}")
    return lines


def _cmd_why(args: argparse.Namespace) -> int:
    if not (args.fixture or args.audit or args.experiment):
        print("audit why: need --fixture, --audit, and/or --experiment",
              file=sys.stderr)
        return 2
    if (args.audit or args.experiment) and args.cycle is None:
        print("audit why: --audit/--experiment need --cycle N", file=sys.stderr)
        return 2

    if args.fixture:
        return _cmd_why_fixture(args)

    printed = False
    if args.experiment:
        lines = _experiment_blame(args)
        print(f"audit why: {args.experiment} "
              f"({args.benchmark}@{args.corner}), cycle {args.cycle}")
        for line in lines:
            print(line)
        printed = True
    if args.audit:
        if not printed:
            print(f"audit why: {args.audit}, cycle {args.cycle}")
        print("decision chain:")
        lines = _stream_why(args.audit, args.cycle, args.scheme)
        for line in lines:
            print(line)
        if not lines:
            print("  (no runs in the stream match"
                  + (f" scheme {args.scheme!r}" if args.scheme else "") + ")")
    return 0


def _cmd_why_fixture(args: argparse.Namespace) -> int:
    """The acceptance demo: blame + decision on the forced-choke circuit.

    A hand-built chip carries one planted choke gate on its short mux
    branch; one errant cycle is synthesised, every scheme replays it
    under a full audit, and the output names the planted gate alongside
    each scheme's recorded decision for that cycle.
    """
    from repro.core import dcs as dcs_mod
    from repro.core.schemes import razor as razor_mod
    from repro.core.trident import controller as trident_mod
    from repro.qa.circuits import forced_choke_chip, synthetic_error_trace
    from repro.timing.choke import analyze_choke_event
    from repro.timing.dta import ERR_CE, ERR_NONE

    cycle = args.cycle if args.cycle is not None else 3
    fixture = forced_choke_chip()
    # Sensitise the choked short branch: sel stays 1 (mux selects the
    # short branch), b toggles across the cycle boundary.
    prev = np.array([0, 0, 1])
    curr = np.array([0, 1, 1])
    event = analyze_choke_event(
        fixture.circuit, fixture.chip, prev, curr, fixture.nominal_critical
    )
    if event is None:  # pragma: no cover - the fixture guarantees an event
        print("audit why: fixture produced no choke event", file=sys.stderr)
        return 1

    err_class = np.full(max(cycle + 3, 8), ERR_NONE, dtype=np.int8)
    err_class[cycle] = ERR_CE
    trace = synthetic_error_trace(err_class, benchmark="forced-choke")

    schemes = [
        razor_mod.RazorScheme(),
        dcs_mod.DcsScheme(variant="icslt", capacity=8, associativity=4),
        trident_mod.TridentScheme(cet_capacity=8),
    ]
    if args.scheme:
        schemes = [s for s in schemes if s.name == args.scheme] or schemes
    with audit.recording() as sink:
        for scheme in schemes:
            scheme.simulate(trace)
    runs = sink.snapshot_runs()

    print(f"audit why: forced-choke fixture, cycle {cycle}")
    print(f"  error: CE at cycle {cycle} "
          f"(sensitised arrival {fixture.short_arrival:.1f} ps vs "
          f"nominal critical {fixture.nominal_critical:.1f} ps)")
    print(f"  blame: {event.blame_line(fixture.netlist)}")
    print("decision chain:")
    for run in runs:
        cycles = run["columns"]["cycle"]
        for row in np.flatnonzero(cycles == cycle):
            print(f"  {audit.run_label(run)}: {_fmt_record(run, int(row))}")
    return 0


def _experiment_blame(args: argparse.Namespace) -> list[str]:
    """Recompute gate-level blame for one cycle of a real experiment."""
    from repro.experiments.config import DEFAULT_CONFIG, FAST_CONFIG
    from repro.experiments.registry import EXPERIMENTS
    from repro.experiments.runner import ExperimentContext
    from repro.runtime import CheckpointStore
    from repro.timing.choke import analyze_choke_event

    if args.experiment not in EXPERIMENTS:
        raise SystemExit(f"audit why: unknown experiment {args.experiment!r}")
    config = FAST_CONFIG if args.fast else DEFAULT_CONFIG
    store = CheckpointStore(args.checkpoint_dir) if args.checkpoint_dir else None
    ctx = ExperimentContext(config, store=store)
    stage = ctx.stage(args.corner)
    chip_seed = args.chip_seed if args.chip_seed is not None else config.ch3_chip_seed
    chip = ctx.chip(chip_seed, args.corner)
    trace = ctx.trace(args.benchmark)
    inputs = trace.encode_inputs(stage.alu)
    cycle = args.cycle
    # ErrorTrace entry N covers the transition from input column N to
    # N+1 (the sensitising instruction is instrs[N+1]).
    if not 0 <= cycle < inputs.shape[1] - 1:
        raise SystemExit(
            f"audit why: cycle {cycle} outside trace "
            f"(0..{inputs.shape[1] - 2})"
        )
    event = analyze_choke_event(
        stage.circuit, chip, inputs[:, cycle], inputs[:, cycle + 1],
        stage.nominal_critical_delay,
    )
    if event is None:
        return [f"  blame: no choke path at cycle {cycle} on chip seed "
                f"{chip_seed} (sensitised delay within nominal critical)"]
    return [
        f"  blame (chip seed {chip_seed}): {event.blame_line(stage.netlist)}",
        f"  path endpoint: node {event.path.nodes[-1]} "
        f"({stage.netlist.name_of(event.path.nodes[-1])})",
    ]


def _cmd_timeline(args: argparse.Namespace) -> int:
    document = audit.load_audit(args.audit)
    runs = [
        run for run in document["runs"]
        if not args.scheme or run.get("scheme") == args.scheme
    ]
    if not runs:
        print("no matching runs in the stream", file=sys.stderr)
        return 1
    width = max(len(audit.run_label(run)) for run in runs)
    print(f"policy {document.get('policy', 'full')} · {len(runs)} run(s) · "
          "glyphs: e=errant-cycle a=avoid p=predict f=false-positive "
          "D=detect U=under-stall")
    for run in runs:
        label = audit.run_label(run).ljust(width)
        print(f"{label}  {audit.decision_timeline(run)}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    document = audit.load_audit(args.audit)
    trace_doc = audit.audit_trace_document(
        document["runs"], trace_id=document.get("trace_id", "")
    )
    with open(args.trace_out, "w") as handle:
        json.dump(trace_doc, handle)
        handle.write("\n")
    print(f"audit trace written to {args.trace_out} "
          f"({len(trace_doc['traceEvents'])} event(s))")
    return 0


def audit_main(argv: list[str]) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "why":
            return _cmd_why(args)
        if args.command == "timeline":
            return _cmd_timeline(args)
        return _cmd_export(args)
    except BrokenPipeError:
        # `audit ... | head` is legitimate; die quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(audit_main(sys.argv[1:]))
