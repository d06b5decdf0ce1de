#!/usr/bin/env python
"""Measure cycle-audit overhead: off vs full vs reservoir sampling.

All five scheme state machines replay the same synthetic error trace
three times in-process — audit disabled, audit at ``policy=full``, and
audit at ``policy=reservoir:K`` — and the wall-clock ratios are the
quantities the CI gate watches (warn-only, ``check_regression.py
--audit``) to catch the flight recorder's hot-path cost creeping into
uninstrumented runs.  The disabled leg is the contract: schemes pay one
``audit.get()`` per simulate call plus a local ``None`` check per
event, so ``overhead_full`` measures recording, not plumbing.

Usage::

    python benchmarks/bench_audit.py
    python benchmarks/bench_audit.py --cycles 50000 --json BENCH_audit.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from repro.core import dcs as dcs_mod  # noqa: E402
from repro.core.schemes import hfg as hfg_mod  # noqa: E402
from repro.core.schemes import ocst as ocst_mod  # noqa: E402
from repro.core.schemes import razor as razor_mod  # noqa: E402
from repro.core.trident import controller as trident_mod  # noqa: E402
from repro.obs import audit  # noqa: E402
from repro.qa.circuits import synthetic_error_trace  # noqa: E402

DEFAULT_CYCLES = 50_000
DEFAULT_REPEATS = 3
DEFAULT_ERR_RATE = 0.05


def _build_trace(cycles: int, err_rate: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    err_class = np.where(
        rng.random(cycles) < err_rate,
        rng.integers(1, 4, size=cycles),
        0,
    ).astype(np.int8)
    instr = rng.integers(0, 64, size=cycles)
    return synthetic_error_trace(
        err_class,
        instr_sens=instr,
        instr_init=np.roll(instr, 1),
        benchmark="bench-audit",
    )


def _schemes():
    return (
        razor_mod.RazorScheme(),
        hfg_mod.HfgScheme(),
        ocst_mod.OcstScheme(),
        dcs_mod.DcsScheme("icslt", capacity=64, associativity=4),
        trident_mod.TridentScheme(cet_capacity=64),
    )


def run_once(trace, policy: str | None) -> tuple[float, int]:
    """Wall seconds for one full scheme sweep; records captured."""
    assert not audit.enabled(), "the off leg needs audit off"
    recording = audit.recording(policy) if policy is not None else contextlib.nullcontext()
    with recording as sink:
        start = time.perf_counter()
        for scheme in _schemes():
            scheme.simulate(trace)
        elapsed = time.perf_counter() - start
    records = sum(len(run.columns["cycle"]) for run in sink.runs) if sink else 0
    return elapsed, records


def measure(trace, policy: str | None, repeats: int) -> tuple[float, int]:
    best, records = min(run_once(trace, policy) for _ in range(repeats))
    return best, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--err-rate", type=float, default=DEFAULT_ERR_RATE)
    parser.add_argument("--reservoir", type=int, default=512,
                        help="K for the reservoir-sampled leg")
    parser.add_argument("--json", help="also write the numbers to this file")
    args = parser.parse_args(argv)

    trace = _build_trace(args.cycles, args.err_rate)
    legs = (
        ("off", None),
        ("full", "full"),
        ("reservoir", f"reservoir:{args.reservoir}:0"),
    )
    results = {}
    reference = None
    for name, policy in legs:
        elapsed, records = measure(trace, policy, args.repeats)
        if reference is None:
            reference = elapsed
        results[name] = {
            "wall_s": round(elapsed, 4),
            "overhead": round(elapsed / reference, 3),
            "records": records,
        }
        print(
            f"audit={name:<10s} wall={elapsed:7.3f}s "
            f"overhead={elapsed / reference:5.2f}x records={records}",
            flush=True,
        )

    payload = {
        "cycles": args.cycles,
        "err_rate": args.err_rate,
        "repeats": args.repeats,
        "cpu_count": os.cpu_count(),
        "legs": results,
        "overhead_full": results["full"]["overhead"],
        "overhead_reservoir": results["reservoir"]["overhead"],
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"audit numbers written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
