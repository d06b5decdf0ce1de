#!/usr/bin/env python
"""CI gates: perfbench against a base checkout, and the seed-hygiene lint.

The perf gate runs ``perfbench/run.py --trace 0`` on every workload in
``BENCHMARK.json``, in this checkout and in a checkout of the base
commit, in alternating pairs.  It fails if any run of this checkout is
not ``correct`` (an op raised or an output digest moved), or if, for
any ``end_to_end`` metric on any workload, this checkout's median is
worse than the base's by more than the metric's ``bound``.  Workloads,
metrics, directions and bounds all come from ``BENCHMARK.json``.

The lint (``--lint``) needs no base checkout: it fails on builtin
``hash()`` and unseeded ``random.*()`` call sites under ``--lint-root``.

Usage::

    python benchmarks/check_regression.py ../base
    python benchmarks/check_regression.py --lint
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: the checkout this script belongs to: the change under test
REPO = Path(__file__).resolve().parent.parent

#: base/change run pairs per workload; the gate compares their medians.
#: With 3 pairs, two comparisons of identical trees read ``setup_s``
#: 20% and 22% apart on a 2-core host, too near its 25% bound.
PAIRS = 5

#: ``--seconds`` of each perfbench run (its timed phase; set-up is extra)
SECONDS = 3

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


def run_perfbench(command: list[str], checkout: Path, workload: str) -> dict | None:
    """One untraced perfbench run's result record, or None if it printed none."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = None
    if not isinstance(record, dict):
        print(f"perfbench {workload} in {checkout} printed no result "
              f"(exit {done.returncode}): {done.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return record


def compare(benchmark: dict, base: dict, change: dict) -> tuple[list[str], list[str]]:
    """Judge the change's runs against the base's: (report lines, failures).

    ``base`` and ``change`` map a workload name to its run records, each
    the JSON object on perfbench's last stdout line (None for a run that
    printed no result).  A change run that is missing or not ``correct``
    fails.  Each ``end_to_end`` metric compares medians over the runs
    that reported it; a base without the metric (an older checkout) is
    reported and not compared.
    """
    lines: list[str] = []
    failures: list[str] = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        change_runs = change.get(workload, [])
        bad = sum(1 for run in change_runs if not (run and run.get("correct")))
        if bad:
            failures.append(f"{workload}: {bad} of {len(change_runs)} run(s) not correct")
        for metric in benchmark["end_to_end"]:
            name, bound = metric["name"], float(metric["bound"])
            medians = []
            for runs in (base.get(workload, []), change_runs):
                values = [run["metrics"][name]["value"] for run in runs
                          if run and name in run.get("metrics", {})]
                medians.append(statistics.median(values) if values else None)
            base_median, change_median = medians
            label = f"{workload} {name}"
            if change_median is None:
                failures.append(f"{label}: not reported by this checkout")
                continue
            if base_median is None:
                lines.append(f"  {label:<32s} {change_median:>12.6g}  (no base value)")
                continue
            if metric["better"] == "higher":
                worse = base_median - change_median
            else:
                worse = change_median - base_median
            if base_median:
                worse /= abs(base_median)
            elif worse > 0:
                worse = float("inf")
            status = "REGRESSED" if worse > bound else "ok"
            lines.append(
                f"  {label:<32s} {change_median:>12.6g} vs base {base_median:<12.6g} "
                f"worse by {worse:+.1%} (bound {bound:.0%}) {status}"
            )
            if worse > bound:
                failures.append(
                    f"{label}: {change_median:g} is {worse:.1%} worse than the "
                    f"base's {base_median:g} (bound {bound:.0%})"
                )
    return lines, failures


def gate(base_checkout: Path) -> int:
    """Run the perfbench pairs and print the comparison; 1 on a regression."""
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    command = benchmark["command"]
    workloads = [entry["name"] for entry in benchmark["workloads"]]
    runs: dict[str, dict[str, list]] = {"base": {}, "change": {}}
    for pair in range(PAIRS):
        for workload in workloads:
            # alternate which side goes first, so a host that speeds up
            # or slows down over the gate favours neither
            sides = [("base", base_checkout), ("change", REPO)]
            for side, checkout in sides if pair % 2 == 0 else sides[::-1]:
                record = run_perfbench(command, checkout, workload)
                runs[side].setdefault(workload, []).append(record)
                if record is None:
                    state = "no result"
                elif record.get("correct"):
                    state = "correct"
                else:
                    state = (f"NOT correct ({record.get('failed')} of "
                             f"{record.get('attempted')} op(s) failed)")
                print(f"pair {pair + 1}/{PAIRS} {workload:<13s} {side:<6s} {state}",
                      flush=True)
    lines, failures = compare(benchmark, runs["base"], runs["change"])
    print(f"medians over {PAIRS} pair(s), this checkout vs {base_checkout}:")
    print("\n".join(lines))
    if failures:
        print("PERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no perf regressions")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", type=Path,
                        help="checkout of the base commit to compare against")
    parser.add_argument("--lint", action="store_true",
                        help="seed-hygiene lint: fail on builtin hash() and "
                        "unseeded random.* call sites under --lint-root")
    parser.add_argument("--lint-root", default="src", metavar="DIR",
                        help="directory tree the lint scans (default: src)")
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
    if args.base is None:
        parser.error("nothing to check: pass a base checkout or --lint")
    return gate(args.base.resolve())


if __name__ == "__main__":
    sys.exit(main())
