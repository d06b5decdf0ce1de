#!/usr/bin/env python
"""Measure executor-backend overhead: inproc vs procpool.

Each backend runs the same experiment set end to end through the CLI in
a subprocess with a fresh checkpoint directory (no cross-backend
resume): ``--jobs 1`` selects inproc and ``--jobs 2`` procpool.  The
procpool number includes the pool start-up and fan-out tax — the
quantity the CI gate watches (warn-only) to catch a coordination
regression hiding behind a still-green test suite.

Usage::

    python benchmarks/bench_backends.py --fast
    python benchmarks/bench_backends.py --fast --cycles 2000 \\
        --json BENCH_backends.json
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: one real trace simulation plus the two cheap static-estimate tables:
#: enough work to measure coordination overhead without dominating CI
DEFAULT_EXPERIMENTS = ("fig3_4", "tab3_ovh", "tab4_ovh")
DEFAULT_CYCLES = 2_000

#: each backend and the ``--jobs`` value that selects it
BACKENDS = {"inproc": "1", "procpool": "2"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_once(backend, experiments, fast, cycles):
    """Wall-clock seconds for one cold CLI run on the given backend."""
    ckpt = tempfile.mkdtemp(prefix=f"bench-ckpt-{backend}-")
    cmd = [
        sys.executable, "-m", "repro.experiments", *experiments,
        "--jobs", BACKENDS[backend], "--checkpoint-dir", ckpt,
    ]
    if fast:
        cmd.append("--fast")
    if cycles:
        cmd.extend(["--cycles", str(cycles)])
    try:
        start = time.perf_counter()
        subprocess.run(
            cmd, check=True, env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return time.perf_counter() - start
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", nargs="+", default=list(BACKENDS),
                        choices=BACKENDS)
    parser.add_argument(
        "--experiments", nargs="+", default=list(DEFAULT_EXPERIMENTS)
    )
    parser.add_argument("--fast", action="store_true", default=True)
    parser.add_argument("--cycles", type=int, default=DEFAULT_CYCLES)
    parser.add_argument("--json", help="also write the numbers to this file")
    args = parser.parse_args(argv)

    results = []
    reference = None
    for backend in args.backends:
        elapsed = run_once(backend, args.experiments, args.fast, args.cycles)
        if reference is None:
            reference = elapsed
        results.append(
            {
                "backend": backend,
                "wall_s": round(elapsed, 2),
                "overhead": round(elapsed / reference, 2),
            }
        )
        print(
            f"backend={backend:<9s} wall={elapsed:7.1f}s "
            f"overhead={elapsed / reference:5.2f}x",
            flush=True,
        )

    payload = {
        "experiments": args.experiments,
        "cycles": args.cycles,
        "cpu_count": os.cpu_count(),
        "backends": results,
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"backend numbers written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
