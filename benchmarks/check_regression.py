#!/usr/bin/env python
"""CI perf-regression gate.

Merges the pytest-benchmark results and the parallel-scaling numbers
into one ``BENCH_ci.json`` artifact, then compares the tier-1 smoke
benchmarks against the committed baseline
(``benchmarks/baseline.json``).  A benchmark whose mean wall-clock
exceeds its baseline by more than the tolerance (default 30%) — or a
baselined benchmark that silently stopped running — fails the job.

With ``--metrics`` it additionally diffs key telemetry counters from a
``metrics.json`` (written by ``--metrics-out``) against the baseline's
``metrics`` section: checkpoint hit-rate, span wall-clock totals, and
the pinned domain counters.  Metric drift beyond the tolerance
(default 20%) only **warns** by default — counters drift for
legitimate reasons (config changes, new instrumentation) far more
often than they signal a regression, so they inform the reviewer
instead of gating the merge.  With ``--strict`` any metric drifting
beyond the tolerance fails the job, so CI can opt in per-job.

With ``--events PATH`` the per-kind event counts of an
``events.jsonl`` (written by ``--events-out``) are diffed against the
baseline's ``events.counts`` section.  Event streams are
schedule-dependent by design (worker assignment varies run to run), so
this check **never gates** — not even under ``--strict`` — it only
flags fleets that stopped emitting lifecycle events or started
emitting fault events (resubmit/crash) on a healthy-run baseline.

Usage (mirrors the CI perf and telemetry jobs)::

    python benchmarks/check_regression.py \\
        --bench BENCH_bench.json --scaling BENCH_scaling.json \\
        --baseline benchmarks/baseline.json --out BENCH_ci.json
    python benchmarks/check_regression.py \\
        --metrics metrics.json --out BENCH_telemetry.json
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from pathlib import Path


#: global-RNG functions whose call sites the lint flags; a seeded
#: ``random.Random(seed)`` instance is the sanctioned alternative
_GLOBAL_RNG_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "getrandbits",
})


def lint_seed_hygiene(root: str) -> list[str]:
    """Ban nondeterminism sources under ``root`` (AST-based).

    Two classes of call site are flagged:

    * builtin ``hash()`` — salted per process (PYTHONHASHSEED), so any
      value derived from it silently varies between a serial run and
      its fleet workers.  Derive seeds/positions through ``zlib.crc32``
      (see ``repro.experiments.charstudy.stable_seed``).
    * module-level ``random.*()`` — the global RNG's state depends on
      import order and everything else that touched it, so its output
      differs between backends.  Use a seeded ``random.Random(seed)``
      instance instead.

    Mentions in strings and docstrings are fine; only calls are flagged.
    """
    findings = []
    for path in sorted(Path(root).rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except SyntaxError as exc:
            findings.append(f"{path}:{exc.lineno}: unparseable: {exc.msg}")
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "hash":
                findings.append(
                    f"{path}:{node.lineno}: builtin hash() is salted per "
                    f"process; derive seeds/positions via zlib.crc32 "
                    f"(stable_seed) instead"
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "random"
                and node.func.attr in _GLOBAL_RNG_FNS
            ):
                findings.append(
                    f"{path}:{node.lineno}: global random.{node.func.attr}() "
                    f"is unseeded and schedule-dependent; use a seeded "
                    f"random.Random(seed) instance instead"
                )
    return findings


def load_bench_means(path: str) -> dict[str, float]:
    """name -> mean seconds from a pytest-benchmark JSON file."""
    with open(path) as handle:
        payload = json.load(handle)
    return {
        bench["name"]: float(bench["stats"]["mean"])
        for bench in payload.get("benchmarks", [])
    }


def telemetry_observations(metrics_path: str) -> dict[str, float]:
    """Counters + derived values from a ``metrics.json`` worth diffing."""
    with open(metrics_path) as handle:
        doc = json.load(handle)
    counters = doc.get("counters", {})
    observed: dict[str, float] = dict(counters)
    hits = counters.get("checkpoint.hits", 0)
    misses = counters.get("checkpoint.misses", 0)
    if hits + misses:
        observed["derived.checkpoint_hit_rate"] = hits / (hits + misses)
    observed["derived.span_total_s"] = sum(
        entry.get("sum", 0.0)
        for name, entry in doc.get("histograms", {}).items()
        if name.startswith("span.") and name.endswith(".s")
    )
    return observed


def diff_metrics(
    observed: dict[str, float], baseline_metrics: dict, tolerance: float
) -> tuple[dict, list[str]]:
    """Compare observed counters to the baseline; drift only warns."""
    checked = {}
    warnings = []
    for name, expected in baseline_metrics.get("counters", {}).items():
        measured = observed.get(name)
        drift = None
        if measured is not None and expected:
            drift = (measured - expected) / expected
        checked[name] = {
            "baseline": expected,
            "measured": round(measured, 6) if measured is not None else None,
            "drift": round(drift, 4) if drift is not None else None,
        }
        if measured is None:
            warnings.append(f"{name}: baselined metric not present in metrics.json")
        elif drift is not None and abs(drift) > tolerance:
            warnings.append(
                f"{name}: {measured:g} drifted {drift:+.0%} from "
                f"baseline {expected:g} (tolerance {tolerance:.0%})"
            )
    return checked, warnings


def diff_events(
    events_path: str, baseline_events: dict, tolerance: float
) -> tuple[dict, list[str]]:
    """Per-kind event-count drift vs the baseline; informational only.

    Event streams are schedule-dependent by design (a resubmit depends
    on which tasks were in flight when a worker died), so this never
    gates — not even under ``--strict``.  Baselined kinds with a zero
    expected count (resubmit/crash) warn on *any* occurrence: they
    signal an unhealthy fleet, not drift.
    """
    try:
        from repro.obs.events import read_events
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from repro.obs.events import read_events

    counts: dict[str, int] = {}
    for event in read_events(events_path):
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
    checked = {}
    warnings = []
    for kind, expected in baseline_events.get("counts", {}).items():
        measured = counts.get(kind, 0)
        drift = (measured - expected) / expected if expected else None
        checked[kind] = {
            "baseline": expected,
            "measured": measured,
            "drift": round(drift, 4) if drift is not None else None,
        }
        if expected == 0 and measured:
            warnings.append(
                f"events.{kind}: {measured} event(s) on a run baselined "
                f"at zero (fleet fault indicator)"
            )
        elif drift is not None and abs(drift) > tolerance:
            warnings.append(
                f"events.{kind}: {measured} drifted {drift:+.0%} from "
                f"baseline {expected} (tolerance {tolerance:.0%})"
            )
    # a kind the baseline does not list is reported but never compared
    for kind in sorted(set(counts) - set(checked)):
        checked[kind] = {"baseline": None, "measured": counts[kind],
                         "drift": None}
    return checked, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench",
                        help="pytest-benchmark --benchmark-json output")
    parser.add_argument("--scaling",
                        help="bench_parallel_scaling.py --json output")
    parser.add_argument("--metrics",
                        help="telemetry metrics.json (from --metrics-out) "
                        "to diff against the baseline's metrics section")
    parser.add_argument("--events", metavar="PATH",
                        help="events.jsonl (from --events-out): warn when "
                        "per-kind event counts drift from the baseline's "
                        "events.counts (schedule-dependent; never gates)")
    parser.add_argument("--backends",
                        help="bench_backends.py --json output: warn when a "
                        "backend's overhead over inproc exceeds the "
                        "baseline's backends.max_overhead (never gates)")
    parser.add_argument("--audit",
                        help="bench_audit.py --json output: warn when the "
                        "flight recorder's full/reservoir overhead over the "
                        "audit-off leg exceeds the baseline's audit "
                        "watermarks (never gates)")
    parser.add_argument("--baseline", default="benchmarks/baseline.json")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the baseline file's tolerance")
    parser.add_argument("--strict", action="store_true",
                        help="fail (exit non-zero) on metric drift "
                        "beyond tolerance instead of warning")
    parser.add_argument("--lint", action="store_true",
                        help="seed-hygiene lint: fail on builtin hash() "
                        "call sites under --lint-root (no perf inputs "
                        "needed)")
    parser.add_argument("--lint-root", default="src", metavar="DIR",
                        help="directory tree the lint scans (default: src)")
    parser.add_argument("--out",
                        default=os.environ.get("CHECK_REGRESSION_OUT",
                                               "BENCH_ci.json"),
                        help="merged report path (default: BENCH_ci.json, "
                        "or $CHECK_REGRESSION_OUT; ignored by --lint)")
    args = parser.parse_args(argv)
    if args.lint:
        findings = lint_seed_hygiene(args.lint_root)
        if findings:
            print("SEED-HYGIENE LINT:", file=sys.stderr)
            for finding in findings:
                print(f"  {finding}", file=sys.stderr)
            return 1
        print(f"seed-hygiene lint: no builtin hash() or unseeded "
              f"random.* call sites under {args.lint_root}/")
        return 0
    if not (args.bench or args.metrics or args.backends
            or args.events or args.audit):
        parser.error(
            "nothing to check: pass --bench, --metrics, "
            "--backends, --events and/or --audit"
        )

    with open(args.baseline) as handle:
        baseline = json.load(handle)
    tolerance = (
        args.tolerance if args.tolerance is not None
        else float(baseline.get("tolerance", 0.30))
    )

    means = load_bench_means(args.bench) if args.bench else {}
    scaling = None
    if args.scaling:
        with open(args.scaling) as handle:
            scaling = json.load(handle)

    regressions = []
    checked = {}
    if scaling is not None:
        # Gate the fan-out wall-clock per jobs level, same tolerance as
        # the benchmark means.  Baselines are padded over a warm run;
        # a missing level (the bench's --jobs set changed) also fails,
        # like a baselined benchmark that stopped running.
        walls = {
            str(entry["jobs"]): float(entry["wall_s"])
            for entry in scaling.get("scaling", [])
        }
        for jobs, allowed_wall in baseline.get("scaling_wall_s", {}).items():
            limit = allowed_wall * (1.0 + tolerance)
            measured = walls.get(str(jobs))
            checked[f"parallel_scaling_jobs{jobs}"] = {
                "baseline_s": allowed_wall,
                "limit_s": round(limit, 3),
                "measured_s": round(measured, 3) if measured is not None else None,
            }
            if measured is None:
                regressions.append(
                    f"parallel_scaling_jobs{jobs}: baselined jobs level "
                    f"did not run"
                )
            elif measured > limit:
                regressions.append(
                    f"parallel_scaling_jobs{jobs}: {measured:.2f}s exceeds "
                    f"{allowed_wall:.2f}s baseline by more than "
                    f"{tolerance:.0%} (limit {limit:.2f}s)"
                )
    if args.bench:
        for name, allowed_mean in baseline.get("bench_mean_s", {}).items():
            limit = allowed_mean * (1.0 + tolerance)
            measured = means.get(name)
            checked[name] = {
                "baseline_s": allowed_mean,
                "limit_s": round(limit, 3),
                "measured_s": round(measured, 3) if measured is not None else None,
            }
            if measured is None:
                regressions.append(f"{name}: baselined benchmark did not run")
            elif measured > limit:
                regressions.append(
                    f"{name}: {measured:.2f}s exceeds {allowed_mean:.2f}s "
                    f"baseline by more than {tolerance:.0%} (limit {limit:.2f}s)"
                )

    metrics_checked = {}
    metrics_warnings = []
    if args.metrics:
        baseline_metrics = baseline.get("metrics", {})
        metrics_tolerance = (
            args.tolerance if args.tolerance is not None
            else float(baseline_metrics.get("tolerance", 0.20))
        )
        observed = telemetry_observations(args.metrics)
        metrics_checked, metrics_warnings = diff_metrics(
            observed, baseline_metrics, metrics_tolerance
        )

    events_checked = {}
    events_warnings = []
    if args.events:
        baseline_events = baseline.get("events", {})
        events_tolerance = (
            args.tolerance if args.tolerance is not None
            else float(baseline_events.get("tolerance", 0.5))
        )
        events_checked, events_warnings = diff_events(
            args.events, baseline_events, events_tolerance
        )

    backends_doc = None
    backends_warnings = []
    if args.backends:
        with open(args.backends) as handle:
            backends_doc = json.load(handle)
        max_overhead = float(
            baseline.get("backends", {}).get("max_overhead", 4.0)
        )
        for entry in backends_doc.get("backends", []):
            if entry.get("overhead", 0.0) > max_overhead:
                backends_warnings.append(
                    f"backend {entry['backend']}: {entry['wall_s']:g}s is "
                    f"{entry['overhead']:g}x the inproc reference "
                    f"(watermark {max_overhead:g}x)"
                )

    audit_doc = None
    audit_warnings = []
    if args.audit:
        with open(args.audit) as handle:
            audit_doc = json.load(handle)
        baseline_audit = baseline.get("audit", {})
        for leg, default_max in (("full", 2.0), ("reservoir", 2.0)):
            watermark = float(
                baseline_audit.get(f"max_overhead_{leg}", default_max)
            )
            overhead = float(audit_doc.get(f"overhead_{leg}", 0.0))
            if overhead > watermark:
                audit_warnings.append(
                    f"audit {leg}: {overhead:g}x the audit-off sweep "
                    f"(watermark {watermark:g}x)"
                )

    report = {
        "tolerance": tolerance,
        "bench_mean_s": {name: round(mean, 3) for name, mean in means.items()},
        "checked": checked,
        "scaling": scaling,
        "metrics": metrics_checked,
        "metrics_warnings": metrics_warnings,
        "events": events_checked,
        "events_warnings": events_warnings,
        "backends": backends_doc,
        "backends_warnings": backends_warnings,
        "audit": audit_doc,
        "audit_warnings": audit_warnings,
        "strict": args.strict,
        "regressions": regressions,
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"merged perf report written to {args.out}")

    for name, info in checked.items():
        status = "REGRESSED" if any(r.startswith(name) for r in regressions) else "ok"
        measured = info["measured_s"]
        measured_text = f"{measured:.2f}s" if measured is not None else "missing"
        print(f"  {name:<28s} {measured_text:>9s} "
              f"(baseline {info['baseline_s']:.2f}s, limit {info['limit_s']:.2f}s) "
              f"{status}")
    for name, info in metrics_checked.items():
        drift = info["drift"]
        drift_text = f"{drift:+.0%}" if drift is not None else "n/a"
        drifted = any(w.startswith(name) for w in metrics_warnings)
        status = "DRIFTED" if drifted else "ok"
        print(f"  {name:<36s} {info['measured']!s:>12s} "
              f"(baseline {info['baseline']!s}, drift {drift_text}) {status}")
    for kind, info in events_checked.items():
        drift = info["drift"]
        drift_text = f"{drift:+.0%}" if drift is not None else "n/a"
        drifted = any(w.startswith(f"events.{kind}:") for w in events_warnings)
        status = "DRIFTED" if drifted else "ok"
        baseline_text = (
            str(info["baseline"]) if info["baseline"] is not None else "-"
        )
        print(f"  events.{kind:<28s} {info['measured']:>5d} "
              f"(baseline {baseline_text}, drift {drift_text}) {status}")
    if backends_warnings:
        # Backend overhead is environment-sensitive (CI machines vary);
        # it informs the reviewer and never gates, even under --strict.
        print("BACKEND OVERHEAD (warning only):", file=sys.stderr)
        for warning in backends_warnings:
            print(f"  {warning}", file=sys.stderr)
    if audit_warnings:
        # Recording cost is environment-sensitive like backend overhead;
        # it informs the reviewer and never gates, even under --strict.
        print("AUDIT OVERHEAD (warning only):", file=sys.stderr)
        for warning in audit_warnings:
            print(f"  {warning}", file=sys.stderr)
    if events_warnings:
        # Event streams are schedule-dependent by design; counts inform
        # the reviewer and never gate, even under --strict.
        print("EVENT-COUNT DRIFT (warning only):", file=sys.stderr)
        for warning in events_warnings:
            print(f"  {warning}", file=sys.stderr)
    if metrics_warnings:
        # Counter drift informs by default; --strict turns it into a gate.
        mode = "gating" if args.strict else "warning only"
        print(f"TELEMETRY DRIFT ({mode}):", file=sys.stderr)
        for warning in metrics_warnings:
            print(f"  {warning}", file=sys.stderr)
    if regressions:
        print("PERF REGRESSION:", file=sys.stderr)
        for regression in regressions:
            print(f"  {regression}", file=sys.stderr)
        return 1
    if args.strict and metrics_warnings:
        return 1
    print("no perf regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
