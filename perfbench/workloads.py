"""The four workloads: inputs from a seed, one timed round, output checks.

Every workload drives the program through public entry points only:
``runtime.executor.run_many`` on a fresh ``ExperimentContext``
(``sweep``, ``characterize``), the ``ch3_runs``/``ch4_runs`` scheme
comparisons (``replay``) and the experiments CLI's ``main`` (``fleet``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import replace

import repro.experiments.__main__ as cli
from repro.arch.trace import BENCHMARKS
from repro.experiments import (
    charstudy, fig3_02, fig3_03, fig4_02, reportio, scheme_runs,
)
from repro.experiments.config import FAST_CONFIG
from repro.experiments.registry import get_experiment
from repro.experiments.runner import ExperimentContext
from repro.runtime.executor import run_many

#: input variants, chosen by ``seed % len(VARIANTS)``:
#: (Chapter-3 chip seed, Chapter-4 chip seed, trace-seed offset).
#: Variant 0 is FAST_CONFIG's pinned reference chips with each
#: benchmark's own trace seed; variant 1 takes two other chips of the
#: same error character (max-only errors on the Chapter-3 chip, max and
#: min errors on the Chapter-4 chip) and other instruction traces.
VARIANTS = ((8, 10, 0), (26, 18, 1000))

SWEEP_IDS = (
    "fig3_8", "fig3_9", "fig3_10", "fig3_11", "fig3_12", "tab3_ovh",
    "fig4_8", "fig4_9", "fig4_10", "fig4_11", "fig4_12", "tab4_ovh",
)
CHARACTERIZE_IDS = ("fig3_2", "fig3_3", "fig4_2")
SWEEP_CYCLES = 2_000
REPLAY_CYCLES = 10_000
WARMUP_CYCLES = 300

_BASE_TRACE_SEEDS = {name: config.seed for name, config in BENCHMARKS.items()}


def variant_of(seed: int) -> int:
    return seed % len(VARIANTS)


def install_inputs(variant: int) -> None:
    """Point the program's input tables at ``variant`` for this process.

    The chip seeds reach the program through its configuration; the
    instruction-trace seeds through the benchmark table the trace
    generator reads (forked fleet workers inherit it).
    """
    ch3, ch4, offset = VARIANTS[variant]
    for name, seed in _BASE_TRACE_SEEDS.items():
        BENCHMARKS[name] = replace(BENCHMARKS[name], seed=seed + offset)
    cli.FAST_CONFIG = replace(FAST_CONFIG, ch3_chip_seed=ch3, ch4_chip_seed=ch4)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests(payload: str) -> dict:
    """Digest of the report bytes plus one per experiment."""
    return {
        "report": digest(payload),
        "items": {
            entry["experiment_id"]: digest(json.dumps(entry, sort_keys=True))
            for entry in json.loads(payload)
        },
    }


def warm_sweep(config) -> None:
    """The sweep on short traces: fills the process-level caches
    (correlation factors, scheme-table lookups, lazy imports)."""
    run_many(SWEEP_IDS, ExperimentContext(replace(config, cycles=WARMUP_CYCLES)))


@dataclasses.dataclass
class RoundSummary:
    attempted: int
    failed: int
    sim_cycles: int
    counters: dict = dataclasses.field(default_factory=dict)


def _failed_items(got: dict, pin: dict | None, ids, raised=()) -> int:
    """Ops whose digest is missing or differs from the pin.

    A report whose bytes differ while every item matches counts as one
    failed op.
    """
    if pin is None:
        return len(ids)
    bad = set(raised) | {i for i in ids if got["items"].get(i) != pin["items"].get(i)}
    if not bad and got["report"] != pin["report"]:
        return 1
    return len(bad)


class Workload:
    name = ""
    #: how often set-up runs per process (the median is reported)
    setups = 3
    #: binding labels that must record calls in a traced timed round
    required: tuple[str, ...] = ()
    #: binding labels that must record calls in a traced set-up
    setup_required: tuple[str, ...] = ()

    def __init__(self, variant: int, pins: dict | None, out_dir: str) -> None:
        self.pins = pins
        self.out_dir = out_dir
        ch3, ch4, _ = VARIANTS[variant]
        self.config = replace(FAST_CONFIG, ch3_chip_seed=ch3, ch4_chip_seed=ch4)

    def pin(self, raw) -> dict:
        """The digests of one round's outputs, as stored in digests.json."""
        raise NotImplementedError

    def prepare(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer=None, lap=None):
        """One round; ``lap()`` may be called at natural breaks."""
        raise NotImplementedError

    def collect(self, raw) -> RoundSummary:
        raise NotImplementedError


class _ExperimentsWorkload(Workload):
    """A serial ``run_many`` over fixed experiments, report rendered."""

    ids: tuple[str, ...] = ()

    def run_round(self, tracer=None, lap=None):
        resolve = None
        if tracer is not None:
            def resolve(experiment_id):
                return tracer.wrap(
                    "experiment", get_experiment(experiment_id), "experiments.figure"
                )
        report = run_many(
            self.ids, ExperimentContext(self.config), resolve=resolve, on_outcome=lap
        )
        return report, reportio.render_report(report, "json")

    def pin(self, raw) -> dict:
        return report_digests(raw[1])

    def _failures(self, raw) -> int:
        report, payload = raw
        raised = [f.experiment_id for f in report.failures]
        return _failed_items(report_digests(payload), self.pins, self.ids, raised)


class Sweep(_ExperimentsWorkload):
    name = "sweep"
    ids = SWEEP_IDS
    required = (
        "runner.generate_trace", "runner.build_error_trace", "ExStage.timings",
        "ExStage.fabricate", "runner.build_ex_stage",
        "RazorScheme.simulate", "HfgScheme.simulate", "OcstScheme.simulate",
        "DcsScheme.simulate", "TridentScheme.simulate",
        "scheme_runs.normalize_to", "reportio.render_report",
        "executor.run_supervised", "experiment",
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.config = replace(self.config, cycles=SWEEP_CYCLES)

    def prepare(self) -> None:
        warm_sweep(self.config)

    def collect(self, raw) -> RoundSummary:
        cycles = len(self.config.benchmarks) * 2 * self.config.cycles
        return RoundSummary(len(self.ids), self._failures(raw), cycles)


class Characterize(_ExperimentsWorkload):
    name = "characterize"
    ids = CHARACTERIZE_IDS
    required = (
        "charstudy.cycle_timings", "fig3_02.cycle_timings", "fig3_03.cycle_timings",
        "fig4_02.cycle_timings", "charstudy.analyze_choke_event",
        "runner.fabricate_chip", "ExStage.fabricate", "runner.build_alu",
        "reportio.render_report", "experiment",
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.config = replace(
            self.config, characterization_chips=1, characterization_vectors=40
        )
        self.transitions = 0
        self._lap = None
        # count the transitions the studies time (the workload's
        # simulated cycles), and offer the stopwatch a lap after each
        # DTA call: one study runs for seconds, longer than the host
        # keeps one speed
        for module in (charstudy, fig3_02, fig3_03, fig4_02):
            module.cycle_timings = self._counted(module.cycle_timings)

    def _counted(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.transitions += len(result.t_late)
            if self._lap is not None:
                self._lap()
            return result
        return counted

    def prepare(self) -> None:
        # the cheapest study, plus a chip at the corner it skips: fills
        # the correlation-factor cache and the lazy imports
        ctx = ExperimentContext(replace(self.config, characterization_vectors=8))
        run_many(("fig3_3",), ctx)
        ctx.alu_chip(seed=1000, corner="STC")

    def run_round(self, tracer=None, lap=None):
        self.transitions = 0
        # in a traced round the lap would run inside the traced DTA call
        # and count the reference timing as DTA time
        self._lap = lap if tracer is None else None
        try:
            return super().run_round(tracer, lap)
        finally:
            self._lap = None

    def collect(self, raw) -> RoundSummary:
        return RoundSummary(len(self.ids), self._failures(raw), self.transitions)


class Replay(Workload):
    name = "replay"
    setups = 2
    required = (
        "RazorScheme.simulate", "HfgScheme.simulate", "OcstScheme.simulate",
        "DcsScheme.simulate", "TridentScheme.simulate", "scheme_runs.normalize_to",
    )
    setup_required = (
        "runner.generate_trace", "runner.build_error_traces_batch",
        "ExStage.batch_timings", "ExStage.fabricate",
    )
    _CHAPTERS = (
        ("ch3", scheme_runs.ch3_runs, scheme_runs.CH3_SCHEME_ORDER),
        ("ch4", scheme_runs.ch4_runs, scheme_runs.CH4_SCHEME_ORDER),
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.config = replace(self.config, cycles=REPLAY_CYCLES)
        self.ops = [
            (chapter, benchmark, scheme)
            for benchmark in self.config.benchmarks
            for chapter, _, order in self._CHAPTERS
            for scheme in order
        ]

    def _chip(self, chapter: str) -> int:
        return self.config.ch3_chip_seed if chapter == "ch3" else self.config.ch4_chip_seed

    def prepare(self) -> None:
        ctx = ExperimentContext(self.config)
        seeds = [self.config.ch3_chip_seed, self.config.ch4_chip_seed]
        for benchmark in self.config.benchmarks:
            ctx.error_traces_batch(benchmark, seeds)
        self.ctx = ctx
        self.run_round()  # warm the scheme tables' process-level caches
        self.sim_cycles = sum(
            len(ctx.error_trace(benchmark, self._chip(chapter)))
            for chapter, benchmark, _ in self.ops
        )

    def run_round(self, tracer=None, lap=None):
        self.ctx.memo.clear()
        runs = {}
        for benchmark in self.config.benchmarks:
            for chapter, run, _ in self._CHAPTERS:
                try:
                    runs[chapter, benchmark] = run(self.ctx, benchmark)
                except Exception:  # counted as failed ops by collect()
                    pass
            if lap is not None:
                lap()
        return runs

    def _digests(self, raw) -> dict[str, str]:
        """One digest per (scheme, benchmark, chip) that ran."""
        items = {}
        for chapter, benchmark, scheme in self.ops:
            if (chapter, benchmark) not in raw:
                continue  # the comparison raised
            results, energy = raw[chapter, benchmark]
            items[f"{scheme}/{benchmark}/{self._chip(chapter)}"] = digest(json.dumps(
                {"result": dataclasses.asdict(results[scheme]),
                 "energy": dataclasses.asdict(energy[scheme])},
                sort_keys=True, default=repr,
            ))
        return items

    def pin(self, raw) -> dict:
        return {"items": self._digests(raw)}

    def collect(self, raw) -> RoundSummary:
        failed = len(self.ops)
        if self.pins is not None:
            got = self._digests(raw)
            failed = sum(got.get(key) != value for key, value in self.pins["items"].items())
        return RoundSummary(len(self.ops), failed, self.sim_cycles)


class Fleet(Workload):
    name = "fleet"
    required = (
        "procpool.run_fleet", "parallel.prefetch_artefacts", "parallel.run_many_parallel",
        "runner.build_shared_artefacts", "obs.merge_shards", "audit.merge_audit",
        "audit.write_audit", "cli.render_report",
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.config = replace(self.config, cycles=SWEEP_CYCLES)
        self.jobs = len(os.sched_getaffinity(0))  # the CLI default: one per CPU

    def prepare(self) -> None:
        warm_sweep(self.config)

    def run_round(self, tracer=None, lap=None):
        work = tempfile.mkdtemp(prefix="fleet-", dir=self.out_dir)
        path = {name: os.path.join(work, name) for name in (
            "ckpt", "metrics.json", "trace.json", "events.jsonl", "audit.npz", "report.json",
        )}
        argv = [
            *SWEEP_IDS, "--fast", "--cycles", str(self.config.cycles),
            "--jobs", str(self.jobs), "--checkpoint-dir", path["ckpt"],
            "--metrics-out", path["metrics.json"], "--trace-out", path["trace.json"],
            "--events-out", path["events.jsonl"], "--audit-out", path["audit.npz"],
            "--out", path["report.json"], "--format", "json",
        ]
        span = tracer.span("runtime.supervise") if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(io.StringIO()), span:
            code = cli.main(argv)
        return code, work, path

    def _read(self, raw) -> tuple[str | None, dict]:
        _, work, path = raw
        try:
            with open(path["report.json"]) as handle:
                payload = handle.read()
        except OSError:
            payload = None
        with open(path["metrics.json"]) as handle:
            metrics = json.load(handle)
        with open(path["events.jsonl"]) as handle:
            events = sum(1 for _ in handle)
        counters = metrics["counters"]
        hits = counters.get("checkpoint.hits", 0)
        misses = counters.get("checkpoint.misses", 0)
        wait = metrics["histograms"].get("worker.queue_wait_s", {})
        layer = {
            "runtime.ckpt_hits": hits,
            "runtime.ckpt_misses": misses,
            "runtime.ckpt_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.ckpt_bytes_written": counters.get("checkpoint.bytes_written", 0),
            "runtime.shm_bytes": counters.get("shm.bytes_published", 0),
            "runtime.queue_wait_s": wait.get("sum", 0.0),
            "runtime.failures": counters.get("experiment.failed", 0),
            "runtime.retries": counters.get("experiment.retries", 0),
            "obs.audit_bytes": os.path.getsize(path["audit.npz"]),
            "obs.events": events,
        }
        shutil.rmtree(work, ignore_errors=True)
        return payload, layer

    def pin(self, raw) -> dict:
        payload, _ = self._read(raw)
        return report_digests(payload)

    def collect(self, raw) -> RoundSummary:
        code, _, _ = raw
        payload, layer = self._read(raw)
        if payload is None:
            failed = len(SWEEP_IDS)
        else:
            failed = _failed_items(report_digests(payload), self.pins, SWEEP_IDS)
        if code != 0 and failed == 0:
            failed = 1
        cycles = len(self.config.benchmarks) * 2 * self.config.cycles
        return RoundSummary(len(SWEEP_IDS), failed, cycles, layer)


WORKLOADS = {cls.name: cls for cls in (Sweep, Replay, Characterize, Fleet)}

#: whose pinned digests each workload checks against (fleet == sweep bytes)
PIN_SOURCE = {"sweep": "sweep", "replay": "replay", "characterize": "characterize",
              "fleet": "sweep"}
