#!/usr/bin/env python3
"""Benchmark of the DTA -> scheme pipeline, one workload per process.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer self times and
counters with ``--trace 1``.  Host diagnostics go on the line before
it and, with the spans of a traced run, into ``.perfbench_out/runs/``.
See ``perfbench/README.md`` for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("sweep", "replay", "characterize", "fleet")
#: fresh interpreters timed from spawn to "program imported"
IMPORT_PROBES = 5
#: thread-pool variables pinned to 1 in every workload process
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: --trace 1 metrics: (name, unit) beyond the "<layer>_s" self times
LAYER_COUNTERS = (
    ("timing.dta_calls", "count"), ("timing.chip_cycles", "cycles"),
    ("timing.choke_events", "count"),
    ("core.scheme_calls", "count"), ("core.scheme_cycles", "cycles"),
    ("arch.trace_cycles", "cycles"), ("pv.chips", "count"),
    ("runtime.queue_wait_s", "s"), ("runtime.ckpt_hits", "count"),
    ("runtime.ckpt_misses", "count"), ("runtime.ckpt_hit_ratio", "ratio"),
    ("runtime.ckpt_bytes_written", "bytes"), ("runtime.shm_bytes", "bytes"),
    ("runtime.failures", "count"), ("runtime.retries", "count"),
    ("obs.audit_bytes", "bytes"), ("obs.events", "count"),
    ("sim.errors_total", "count"), ("sim.errors_predicted", "count"),
    ("sim.false_positives", "count"), ("sim.penalty_cycles", "cycles"),
    ("sim.unique_instances", "count"),
)
#: layers whose set-up self time a traced run also reports
SETUP_LAYERS = ("timing.dta", "core.etrace", "arch.trace", "pv.fabricate", "circuits.build")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; seed %% 2 picks the input variant")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer self times instead")
    # internal: time an import of the program from this monotonic instant
    parser.add_argument("--probe", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_import_s(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the program imported."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--probe", repr(start)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


class Stopwatch:
    """Times work in segments separated by reference timings.

    Each segment's host seconds are scaled to the nominal host speed by
    the reference timings just before and just after it
    (:func:`host.speed_factor`); the reference timings themselves fall
    outside every segment.  Work that calls ``lap`` at natural breaks
    (after each experiment) is measured in several shorter segments,
    so the host's speed is sampled more often while it runs.  The set-up
    steps report these scaled seconds; the timed phase is scaled as a
    whole by :func:`host.phase_speed`.
    """

    #: ``lap`` closes a segment only once it is at least this long
    MIN_SEGMENT_S = 0.3

    def __init__(self, host) -> None:
        self.host = host
        self.refs_ms = [host.reference_ms()]

    def time(self, fn, *args):
        """``fn(*args, lap)`` -> (host seconds, scaled seconds, result)."""
        self._host_s = self._scaled_s = 0.0
        self._began = time.perf_counter()
        result = fn(*args, self.lap)
        self._close()
        return self._host_s, self._scaled_s, result

    def lap(self, *_) -> None:
        if time.perf_counter() - self._began >= self.MIN_SEGMENT_S:
            self._close()
            self._began = time.perf_counter()

    def _close(self) -> None:
        took = time.perf_counter() - self._began
        self.refs_ms.append(self.host.reference_ms())
        self._host_s += took
        self._scaled_s += took * self.host.speed_factor(*self.refs_ms[-2:])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def load_pins(workloads, name: str, variant: int):
    with open(os.path.join(HERE, "digests.json")) as handle:
        pins = json.load(handle)
    return pins.get(workloads.PIN_SOURCE[name], {}).get(str(variant))


def timed_phase(wl, watch: Stopwatch, seconds: float, traced_too: bool, labels):
    """Whole rounds until the next would overrun ``seconds``.

    With ``traced_too`` untraced and traced rounds alternate.  Returns
    ``(tracer or None, host s, summary)`` per round.
    """
    from tracer import Tracer

    step = 2 if traced_too else 1
    rounds = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced_too and len(rounds) % 2 == 1 else None
        with tracer.installed(labels) if tracer else contextlib.nullcontext():
            took, _, output = watch.time(wl.run_round, tracer)
        rounds.append((tracer, took, wl.collect(output)))
        typical = median([r[1] for r in rounds])
        if len(rounds) % step == 0 and time.perf_counter() - start + typical > seconds:
            return rounds


def mean_s(rounds, traced: bool, speed: float) -> float:
    took = [r[1] for r in rounds if (r[0] is not None) == traced]
    return statistics.mean(took) * speed if took else 0.0


def end_to_end(rounds, speed: float, setup_s: float, peak_mb: float,
               attempted: int, failed: int):
    wall_s = mean_s(rounds, False, speed)
    cycles = median([r[2].sim_cycles for r in rounds if r[0] is None])
    return {
        "wall_s": metric(wall_s, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
        "sim_cycles_per_s": metric(cycles / wall_s, "cycles/s"),
        "ok_ops_frac": metric(1.0 - failed / attempted, "frac"),
    }


def per_layer(rounds, speed: float, setup_tracer, setup_scale: float) -> dict:
    """Medians over the traced rounds, times scaled like ``wall_s``."""
    from tracer import SPAN_LAYERS

    units = {f"{stem}_s": "s" for stem in SPAN_LAYERS}
    units.update(dict(LAYER_COUNTERS))
    units["trace.unattributed_s"] = "s"
    per_round = []
    for tracer, took, summary in rounds:
        if tracer is None:
            continue
        self_s = tracer.self_times()
        values = {f"{stem}_s": self_s.get(stem, 0.0) * speed for stem in SPAN_LAYERS}
        for name, _ in LAYER_COUNTERS:
            values[name] = tracer.counts.get(name, summary.counters.get(name, 0))
        values["trace.unattributed_s"] = (took - sum(self_s.values())) * speed
        per_round.append(values)
    metrics = {
        name: metric(median([values[name] for values in per_round]), unit)
        for name, unit in units.items()
    }
    traced = mean_s(rounds, True, speed)
    plain = mean_s(rounds, False, speed)
    metrics["trace.wall_s"] = metric(traced, "s")
    metrics["trace.untraced_wall_s"] = metric(plain, "s")
    metrics["trace.overhead_s"] = metric(traced - plain, "s")
    setup_self = setup_tracer.self_times()
    for stem in SETUP_LAYERS:
        metrics[f"setup.{stem}_s"] = metric(setup_self.get(stem, 0.0) * setup_scale, "s")
    return metrics


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops its children (the ``finally`` below);
    # forked workers keep the default, so the program's pools behave as usual
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    try:
        return run(args)
    finally:
        # ``host`` imports NumPy, so it is imported only once the thread
        # pools are pinned; a run that ended before that started nothing
        if "host" in sys.modules:
            sys.modules["host"].stop_children()


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source under src/repro; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    os.environ.update(THREAD_ENV)
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")  # the CLI's scratch dirs
    sys.path.insert(0, SRC)
    if args.probe is not None:
        import workloads  # noqa: F401  (the import is what is timed)

        print(time.monotonic() - args.probe)
        return 0

    import host

    watch = Stopwatch(host)
    probes = [watch.time(lambda lap: probe_import_s(args.workload))
              for _ in range(IMPORT_PROBES)]
    import tracer as tracing
    import workloads

    host.forbid_network_sockets()
    variant = workloads.variant_of(args.seed)
    workloads.install_inputs(variant)
    pins = load_pins(workloads, args.workload, variant)
    wl = workloads.WORKLOADS[args.workload](variant, pins, OUT)
    labels = tuple(tracing.BINDINGS)

    setup_tracer = tracing.Tracer()
    prepares = []
    for repeat in range(wl.setups):
        traced = args.trace and repeat == wl.setups - 1
        with setup_tracer.installed(labels) if traced else contextlib.nullcontext():
            prepares.append(watch.time(lambda lap: wl.prepare()))
    # a probe reports its own import time; scale it like its whole run
    setup_s = (median([imported * scaled / raw for raw, scaled, imported in probes])
               + median([scaled for _, scaled, _ in prepares]))

    phase_refs = len(watch.refs_ms) - 1
    steal_before = host.steal_s()
    sampler = host.TreeRssSampler() if args.workload == "fleet" else None
    with sampler or contextlib.nullcontext():
        rounds = timed_phase(wl, watch, args.seconds, bool(args.trace), labels)
    steal_after = host.steal_s()
    peak_mb = max(host.self_peak_rss_mb(), sampler.peak_mb if sampler else 0.0)

    speed = host.phase_speed(watch.refs_ms[phase_refs:])
    attempted = sum(r[2].attempted for r in rounds)
    failed = sum(r[2].failed for r in rounds)
    traced_rounds = [r[0] for r in rounds if r[0] is not None]
    missing = []
    if args.trace:
        missing = tracing.missing_calls(traced_rounds, wl.required)
        missing += tracing.missing_calls([setup_tracer], wl.setup_required)
        metrics = per_layer(rounds, speed, setup_tracer, prepares[-1][1] / prepares[-1][0])
    else:
        metrics = end_to_end(rounds, speed, setup_s, peak_mb, attempted, failed)
    correct = pins is not None and failed == 0 and not missing

    diagnostics = {
        "steal_s": steal_after - steal_before,
        "ref_ms_before": watch.refs_ms[phase_refs],
        "ref_ms_after": watch.refs_ms[-1],
        "ref_ms": watch.refs_ms,
        "round_host_s": [r[1] for r in rounds],
        "phase_speed": speed,
        "import_host_s": [p[2] for p in probes],
        "prepare_host_s": [p[0] for p in prepares],
        "failed_ops_frac": failed / attempted,
        "variant": variant,
        "uncovered_bindings": missing,
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = os.path.join(
        OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as handle:
        json.dump({"result": result, "host": diagnostics,
                   "spans": [t.records() for t in traced_rounds]
                   + ([setup_tracer.records()] if args.trace else [])}, handle)
    if pins is None:
        print(f"perfbench: no pinned digests for {args.workload} variant {variant}",
              file=sys.stderr)
    if missing:
        print(f"perfbench: traced entry points recorded no calls: {missing}",
              file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    print("host: " + json.dumps(diagnostics))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
