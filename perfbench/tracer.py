"""Spans around the program's public entry points, kept in memory.

A :class:`Tracer` rebinds a fixed list of module- and class-level names
(the bindings the program actually calls through) to thin wrappers that
record ``(name, start, end, parent)`` spans plus a few exact counters,
and restores the original bindings afterwards.  Nothing under ``src/``
is edited: the wrappers live here and are installed only for traced
rounds.

A layer's *self time* is the duration of its spans minus the part
covered by child spans, so nested layers (a DTA call inside error-trace
assembly inside an experiment) are each counted once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import os
import time
from collections import Counter
from typing import Any, Callable

#: layer metric stems reported as ``<stem>_s`` self time
SPAN_LAYERS = (
    "timing.dta", "timing.choke",
    "core.razor", "core.hfg", "core.ocst", "core.dcs_icslt", "core.dcs_acslt",
    "core.trident", "core.etrace",
    "arch.trace", "pv.fabricate", "circuits.build",
    "energy.normalize", "experiments.figure", "experiments.render",
    "runtime.supervise", "runtime.fanout", "runtime.prefetch",
    "runtime.shared_build", "obs.merge",
)

#: exact counters recorded at the same boundaries
COUNTERS = (
    "timing.dta_calls", "timing.chip_cycles", "timing.choke_events",
    "core.scheme_calls", "core.scheme_cycles",
    "arch.trace_cycles", "pv.chips",
    "sim.errors_total", "sim.errors_predicted", "sim.false_positives",
    "sim.penalty_cycles", "sim.unique_instances",
)


@dataclasses.dataclass(frozen=True)
class Binding:
    """One name the program calls through: ``module[:Class].attr``."""

    label: str
    target: str  # "pkg.module" or "pkg.module:Class"
    attr: str
    span: str | Callable[[tuple], str]
    count: Callable[[tuple, dict, Any], dict[str, int]] | None = None

    def owner(self):
        module, _, cls = self.target.partition(":")
        obj = importlib.import_module(module)
        return getattr(obj, cls) if cls else obj


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------

def _count_trace(args, kwargs, result):
    return {"arch.trace_cycles": len(result)}


def _count_dta(args, kwargs, result):
    return {"timing.dta_calls": 1, "timing.chip_cycles": int(result.t_late.size)}


def _count_choke(args, kwargs, result):
    return {"timing.choke_events": 1}


def _count_chip(args, kwargs, result):
    return {"pv.chips": 1}


def _count_population(args, kwargs, result):
    return {"pv.chips": int(result.delays.shape[0])}


def _count_scheme(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return {
        "core.scheme_calls": 1,
        "core.scheme_cycles": len(trace),
        "sim.errors_total": result.errors_total,
        "sim.errors_predicted": result.errors_predicted,
        "sim.false_positives": result.false_positives,
        "sim.penalty_cycles": result.penalty_cycles,
        "sim.unique_instances": result.unique_instances,
    }


def _dcs_span(args) -> str:
    return "core.dcs_icslt" if args[0].name.startswith("DCS-ICSLT") else "core.dcs_acslt"


def _scheme(label: str, target: str, span) -> Binding:
    return Binding(label, target, "simulate", span, _count_scheme)


_RUNNER = "repro.experiments.runner"
_STAGE = "repro.circuits.ex_stage:ExStage"

#: every binding the tracer knows, by label
BINDINGS = {b.label: b for b in (
    Binding("runner.generate_trace", _RUNNER, "generate_trace", "arch.trace", _count_trace),
    Binding("runner.build_error_trace", _RUNNER, "build_error_trace", "core.etrace"),
    Binding("runner.build_error_traces_batch", _RUNNER, "build_error_traces_batch",
            "core.etrace"),
    Binding("runner.build_ex_stage", _RUNNER, "build_ex_stage", "circuits.build"),
    Binding("runner.build_alu", _RUNNER, "build_alu", "circuits.build"),
    Binding("runner.fabricate_chip", _RUNNER, "fabricate_chip", "pv.fabricate", _count_chip),
    Binding("runner.fabricate_population", _RUNNER, "fabricate_population",
            "pv.fabricate", _count_population),
    Binding("runner.build_shared_artefacts", _RUNNER, "build_shared_artefacts",
            "runtime.shared_build"),
    Binding("ExStage.timings", _STAGE, "timings", "timing.dta", _count_dta),
    Binding("ExStage.batch_timings", _STAGE, "batch_timings", "timing.dta", _count_dta),
    Binding("ExStage.fabricate", _STAGE, "fabricate", "pv.fabricate", _count_chip),
    Binding("charstudy.cycle_timings", "repro.experiments.charstudy", "cycle_timings",
            "timing.dta", _count_dta),
    Binding("fig3_02.cycle_timings", "repro.experiments.fig3_02", "cycle_timings",
            "timing.dta", _count_dta),
    Binding("fig3_03.cycle_timings", "repro.experiments.fig3_03", "cycle_timings",
            "timing.dta", _count_dta),
    Binding("fig4_02.cycle_timings", "repro.experiments.fig4_02", "cycle_timings",
            "timing.dta", _count_dta),
    Binding("charstudy.analyze_choke_event", "repro.experiments.charstudy",
            "analyze_choke_event", "timing.choke", _count_choke),
    _scheme("RazorScheme.simulate", "repro.core.schemes.razor:RazorScheme", "core.razor"),
    _scheme("HfgScheme.simulate", "repro.core.schemes.hfg:HfgScheme", "core.hfg"),
    _scheme("OcstScheme.simulate", "repro.core.schemes.ocst:OcstScheme", "core.ocst"),
    _scheme("DcsScheme.simulate", "repro.core.dcs:DcsScheme", _dcs_span),
    _scheme("TridentScheme.simulate", "repro.core.trident.controller:TridentScheme",
            "core.trident"),
    Binding("scheme_runs.normalize_to", "repro.experiments.scheme_runs", "normalize_to",
            "energy.normalize"),
    Binding("reportio.render_report", "repro.experiments.reportio", "render_report",
            "experiments.render"),
    Binding("cli.render_report", "repro.experiments.__main__", "render_report",
            "experiments.render"),
    Binding("executor.run_supervised", "repro.runtime.executor", "run_supervised",
            "runtime.supervise"),
    Binding("procpool.run_fleet", "repro.runtime.backends.procpool", "run_fleet",
            "runtime.supervise"),
    Binding("parallel.prefetch_artefacts", "repro.runtime.parallel", "prefetch_artefacts",
            "runtime.prefetch"),
    Binding("parallel.run_many_parallel", "repro.runtime.parallel", "run_many_parallel",
            "runtime.fanout"),
    Binding("obs.scan_shards", "repro.obs", "scan_shards", "obs.merge"),
    Binding("obs.merge_shards", "repro.obs", "merge_shards", "obs.merge"),
    Binding("audit.scan_audit_shards", "repro.obs.audit", "scan_audit_shards", "obs.merge"),
    Binding("audit.merge_audit", "repro.obs.audit", "merge_audit", "obs.merge"),
    Binding("audit.write_audit", "repro.obs.audit", "write_audit", "obs.merge"),
)}


class Tracer:
    """In-memory span log for one traced round (or one traced set-up)."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: Counter = Counter()  # binding label -> calls
        self.counts: Counter = Counter()
        self._pid = os.getpid()
        self._stack: list[int] = []  # open spans; the program runs one thread

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, label: str, fn: Callable, span, count=None) -> Callable:
        span_of = span if callable(span) else (lambda args: span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self._pid:  # forked fleet workers are not traced
                return fn(*args, **kwargs)
            with self.span(span_of(args)):
                result = fn(*args, **kwargs)
            self.calls[label] += 1
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, labels):
        """Rebind ``labels``' names to traced wrappers for the block.

        A label whose name no longer exists raises ``AttributeError``: a
        refactor that moves a binding must move the benchmark with it.
        """
        originals = []
        try:
            for label in labels:
                binding = BINDINGS[label]
                owner = binding.owner()
                fn = getattr(owner, binding.attr)
                originals.append((owner, binding.attr, fn))
                setattr(owner, binding.attr,
                        self.wrap(label, fn, binding.span, binding.count))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus its children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return dict(totals)

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]


def missing_calls(tracers: list[Tracer], required) -> list[str]:
    """Required binding labels that recorded zero calls across ``tracers``."""
    calls: Counter = Counter()
    for tracer in tracers:
        calls.update(tracer.calls)
    return [label for label in required if calls[label] == 0]
