"""Tests for the telemetry subsystem (:mod:`repro.obs`).

Covers the guarantees the observability layer claims: near-zero cost
while disabled, exact histogram quantiles, order-independent shard
merging (the same ``metrics.json`` regardless of worker scheduling),
Perfetto-loadable trace documents, opt-in span profiling, the schema
validator the CI telemetry job runs, per-scheme domain counters from
the scheme simulators, stale-shard skipping, the strict regression
gate, and the table renderer's alignment/escaping.
"""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.dcs import DcsScheme
from repro.core.schemes.hfg import HfgScheme
from repro.core.schemes.ocst import OcstScheme
from repro.core.schemes.razor import RazorScheme
from repro.core.trident.controller import TridentScheme
from repro.experiments.report import Table
from repro.obs import audit
from repro.obs.metrics import MAX_HISTOGRAM_SAMPLES, Histogram, MetricsRegistry
from repro.obs.recorder import SHARD_VERSION
from repro.obs.schema import check, validate
from tests.util import synthetic_error_trace

REPO = Path(__file__).resolve().parent.parent
SCHEMA_DIR = REPO / "benchmarks" / "schemas"


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture(autouse=True)
def telemetry_off_after_test():
    """Never leak process-global telemetry into the next test."""
    yield
    obs.uninstall()


def install_recorder(**spec) -> obs.TelemetryRecorder:
    """Install telemetry with the metrics channel on; its recorder."""
    return obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True, **spec))).recorder


# ----------------------------------------------------------------------
# metric names and quantiles
# ----------------------------------------------------------------------

def test_labelled_sorts_keys_canonically():
    assert obs.labelled("hits") == "hits"
    assert obs.labelled("out", b=2, a="x") == "out{a=x,b=2}"
    # the same labels in any kwarg order produce the same key
    assert obs.labelled("out", a="x", b=2) == obs.labelled("out", b=2, a="x")


def test_quantile_linear_interpolation():
    values = [1.0, 2.0, 3.0, 4.0]
    assert obs.quantile(values, 0.0) == 1.0
    assert obs.quantile(values, 1.0) == 4.0
    assert obs.quantile(values, 0.5) == pytest.approx(2.5)
    assert obs.quantile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        obs.quantile([], 0.5)
    with pytest.raises(ValueError):
        obs.quantile(values, 1.5)


def test_histogram_summary_statistics():
    histogram = Histogram()
    for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 5
    assert summary["min"] == 1.0 and summary["max"] == 5.0
    assert summary["sum"] == pytest.approx(15.0)
    assert summary["mean"] == pytest.approx(3.0)
    assert summary["p50"] == pytest.approx(3.0)
    expected_p99 = obs.quantile(sorted(histogram.values), 0.99)
    assert summary["p99"] == pytest.approx(expected_p99)


def test_histogram_thinning_bounds_memory():
    histogram = Histogram()
    for index in range(MAX_HISTOGRAM_SAMPLES + 1):
        histogram.observe(float(index))
    assert len(histogram.values) <= MAX_HISTOGRAM_SAMPLES
    # thinning keeps the distribution representative, not truncated
    assert histogram.quantile(0.5) == pytest.approx(
        MAX_HISTOGRAM_SAMPLES / 2, rel=0.01
    )


# ----------------------------------------------------------------------
# merge semantics: order independence is what makes shards deterministic
# ----------------------------------------------------------------------

def make_registry(counter: float, gauge: float, samples: list[float]) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("runs", counter)
    registry.gauge("peak", gauge)
    for sample in samples:
        registry.observe("latency_s", sample)
    return registry


def test_merge_is_order_independent():
    shards = [
        make_registry(2, 5.0, [0.3, 0.1]).snapshot(include_values=True),
        make_registry(1, 9.0, [0.2]).snapshot(include_values=True),
        make_registry(4, 1.0, [0.5, 0.4, 0.6]).snapshot(include_values=True),
    ]
    forward = MetricsRegistry()
    backward = MetricsRegistry()
    for shard in shards:
        forward.merge(shard)
    for shard in reversed(shards):
        backward.merge(shard)
    assert forward.snapshot() == backward.snapshot()
    snapshot = forward.snapshot()
    assert snapshot["counters"]["runs"] == 7
    assert snapshot["gauges"]["peak"] == 9.0
    assert snapshot["histograms"]["latency_s"]["count"] == 6


def test_merge_skips_summary_only_histograms():
    source = make_registry(1, 1.0, [0.1, 0.2])
    target = MetricsRegistry()
    target.merge(source.snapshot(include_values=False))
    assert target.counters["runs"] == 1
    assert "latency_s" not in target.histograms  # samples were dropped


def test_merge_shards_sorts_events_and_processes(tmp_path):
    docs = []
    for pid, process in [(30, "worker"), (10, "main"), (20, "worker")]:
        recorder = obs.TelemetryRecorder(process=process)
        recorder.pid = pid  # simulate distinct processes in one test
        with recorder.span("unit.phase", {"pid": pid}):
            pass
        docs.append(recorder.snapshot_doc())
    registry, events, profiles, processes = obs.merge_shards(docs)
    assert processes == [
        {"pid": 10, "process": "main"},
        {"pid": 20, "process": "worker"},
        {"pid": 30, "process": "worker"},
    ]
    timestamps = [event["ts"] for event in events]
    assert timestamps == sorted(timestamps)
    assert registry.counters["span.count{span=unit.phase}"] == 3


def test_shard_flush_and_load_round_trip(tmp_path):
    telemetry = obs.Telemetry(
        obs.TelemetrySpec(metrics=True, shard_dir=str(tmp_path)), process="worker"
    )
    with telemetry.recorder.span("unit.work", {"part": 1}):
        telemetry.recorder.metrics.inc("unit.tasks")
    telemetry.flush()
    (path,) = tmp_path.glob("shard-*.json")
    # flushing again rewrites the same shard (cumulative, idempotent)
    telemetry.flush()
    assert list(tmp_path.glob("shard-*.json")) == [path]

    (tmp_path / "shard-9999-1.json").write_text("{ truncated")  # dead worker
    docs, stale = obs.scan_shards(tmp_path)
    assert len(docs) == 1 and stale == 1  # the corrupt shard is skipped, not fatal
    registry, _, _, _ = obs.merge_shards(docs)
    assert registry.counters["unit.tasks"] == 1
    assert registry.histograms["span.unit.work.s"].count == 1


def test_truncated_json_and_npz_shards_count_as_stale(tmp_path):
    telemetry = obs.Telemetry(obs.TelemetrySpec(
        metrics=True, audit_policy="full", shard_dir=str(tmp_path),
    ))
    run = telemetry.audit.begin_run(
        kind="scheme", scheme="unit", benchmark="b", corner="NTC",
        base_cycles=8, clock_period=1000.0, hold_constraint=120.0,
    )
    run.decision(3, 2, audit.DEC_DETECT, penalty=5)
    run.finish()
    telemetry.flush()
    # one name, both encodings
    (json_shard,) = tmp_path.glob("shard-*.json")
    (npz_shard,) = tmp_path.glob("shard-*.npz")
    assert json_shard.stem == npz_shard.stem
    # a worker that died mid-write under a current-version name, once
    # per encoding: unreadable files are stale under one rule
    name = f"shard-v{obs.SHARD_VERSION}-{telemetry.pid}-1"
    (tmp_path / f"{name}.json").write_text(json_shard.read_text()[:20])
    (tmp_path / f"{name}.npz").write_bytes(npz_shard.read_bytes()[:40])

    docs, stale = obs.scan_shards(tmp_path)
    assert len(docs) == 1 and stale == 1
    audit_docs, audit_stale = audit.scan_audit_shards(str(tmp_path))
    assert len(audit_docs) == 1 and audit_stale == 1

    merged = obs.Telemetry(obs.TelemetrySpec(
        metrics=True, audit_policy="full", shard_dir=str(tmp_path),
    )).merge()
    assert merged.stale == 2
    assert merged.metrics["counters"]["obs.stale_shards_skipped"] == 2
    assert [r["scheme"] for r in merged.audit_runs] == ["unit"]


def test_determinism_view_drops_schedule_dependent_families():
    doc = {
        "counters": {
            "experiment.ok": 3,
            "dta.evaluations": 1,
            "checkpoint.hits": 5,
            "worker.tasks": 4,
            "span.count{span=worker.task}": 4,
            "sta.analyses": 2,
        },
        "gauges": {"parallel.jobs": 4},
        "histograms": {"span.experiment.run.s": {"count": 3}},
    }
    view = obs.determinism_view(doc)
    assert view == {"counters": {"experiment.ok": 3, "dta.evaluations": 1}}


# ----------------------------------------------------------------------
# recorder: spans, trace events, profiling
# ----------------------------------------------------------------------

def test_span_records_event_histogram_and_counter():
    recorder = install_recorder()
    with obs.span("unit.step", attempt=1, mode=None):
        obs.inc("unit.seen")
    events = [e for e in recorder.events if e["ph"] == "X"]
    assert len(events) == 1
    event = events[0]
    assert event["name"] == "unit.step"
    assert event["cat"] == "unit"
    assert event["args"] == {"attempt": 1, "mode": None}
    assert event["dur"] >= 0
    assert recorder.metrics.counters["span.count{span=unit.step}"] == 1
    assert recorder.metrics.histograms["span.unit.step.s"].count == 1


def test_trace_document_conforms_to_checked_in_schema():
    recorder = install_recorder()
    with obs.span("unit.outer", label="x"):
        with obs.span("unit.inner"):
            pass
    doc = obs.trace_document(recorder.events)
    check(doc, load_schema("trace.schema.json"), label="trace.json")
    # the metadata event names the process for Perfetto's track labels
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert meta and meta[0]["args"]["name"].startswith("main-")


def test_metrics_document_conforms_to_checked_in_schema():
    recorder = install_recorder()
    with obs.span("unit.step"):
        obs.inc("unit.seen", experiment="fig3_4")
        obs.gauge("unit.peak", 3.5)
    doc = obs.metrics_document(
        recorder.metrics, [{"pid": recorder.pid, "process": "main"}]
    )
    check(doc, load_schema("metrics.schema.json"), label="metrics.json")


def test_profiling_keeps_top_n_outermost_spans():
    recorder = install_recorder(profile=True, profile_top=2)
    for duration in (0.03, 0.01, 0.02):
        with obs.span("unit.timed", ms=duration):
            with obs.span("unit.nested"):  # must not be profiled
                time.sleep(duration)
    assert len(recorder.profiles) == 2
    durations = [entry["duration_s"] for entry in recorder.profiles]
    assert durations == sorted(durations, reverse=True)
    assert all(entry["span"] == "unit.timed" for entry in recorder.profiles)
    assert "cumulative" in recorder.profiles[0]["stats"]


def test_profiling_off_keeps_nothing():
    recorder = install_recorder()
    with obs.span("unit.step"):
        pass
    assert recorder.profiles == []


# ----------------------------------------------------------------------
# worker lifecycle
# ----------------------------------------------------------------------

def test_ensure_worker_replaces_inherited_recorder(tmp_path):
    inherited = obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True)))
    inherited.pid = inherited.pid + 1  # simulate a fork-inherited parent
    spec = obs.TelemetrySpec(metrics=True, audit_policy="full", shard_dir=str(tmp_path))
    fresh = obs.ensure_worker(spec)
    assert fresh is not inherited
    assert fresh is obs.active() and fresh.spec == spec
    assert fresh.recorder.process == "worker"
    assert obs.enabled() and audit.get() is fresh.audit
    # a second call in the same process is a no-op
    assert obs.ensure_worker(spec) is fresh


def test_ensure_worker_discards_foreign_recorder_when_off(tmp_path):
    inherited = obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True)))
    inherited.pid = inherited.pid + 1
    assert obs.ensure_worker(obs.TelemetrySpec()) is None
    assert obs.active() is None and not obs.enabled()
    obs.flush_worker()  # must be safe with no telemetry installed


# ----------------------------------------------------------------------
# disabled-path overhead: the reason instrumentation can stay always-on
# ----------------------------------------------------------------------

def test_disabled_telemetry_is_near_free():
    assert not obs.enabled()
    iterations = 50_000
    start = time.perf_counter()
    for _ in range(iterations):
        with obs.span("unit.hot", index=0):
            obs.inc("unit.hot")
    elapsed = time.perf_counter() - start
    # budget: 20µs per span+counter pair — an order of magnitude above
    # what the None-check fast path costs, so only a real regression
    # (e.g. allocating per-call spans while off) trips it.
    assert elapsed < iterations * 20e-6, f"{elapsed:.3f}s for {iterations} no-ops"
    assert obs.span("unit.hot") is obs.span("unit.hot")  # shared singleton


# ----------------------------------------------------------------------
# schema validator
# ----------------------------------------------------------------------

def test_validator_reports_each_violation():
    schema = {
        "type": "object",
        "required": ["version"],
        "properties": {"version": {"type": "integer", "minimum": 1}},
        "additionalProperties": False,
    }
    assert validate({"version": 1}, schema) == []
    errors = validate({"version": 0, "extra": True}, schema)
    assert any("minimum" in error for error in errors)
    assert any("extra" in error for error in errors)
    errors = validate({}, schema)
    assert any("version" in error for error in errors)


def test_validator_rejects_bool_as_number_and_bad_enum():
    assert validate(True, {"type": "number"})
    assert validate(2, {"type": "number"}) == []
    assert validate("ns", {"enum": ["ms", "ns"]}) == []
    assert validate("us", {"enum": ["ms", "ns"]})
    assert validate([1], {"type": "array", "minItems": 2})


def test_validator_refuses_unsupported_schema_keys():
    with pytest.raises(ValueError, match="unsupported schema keys"):
        validate({}, {"patternProperties": {}})


def test_check_raises_with_label():
    with pytest.raises(ValueError, match="metrics.json fails"):
        check([], {"type": "object"}, label="metrics.json")


# ----------------------------------------------------------------------
# end-to-end: the CLI's telemetry artifacts are deterministic and valid
# ----------------------------------------------------------------------

pytest_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel telemetry relies on cheap fork workers",
)


def run_cli_with_telemetry(tmp_path, name, jobs):
    """One CLI run with all four channels on: metrics, spans, events, audit."""
    from repro.experiments.__main__ import main

    metrics = tmp_path / f"metrics-{name}.json"
    trace = tmp_path / f"trace-{name}.json"
    events = tmp_path / f"events-{name}.jsonl"
    stream = tmp_path / f"audit-{name}.npz"
    code = main([
        "fig3_4", "tab3_ovh", "tab4_ovh", "--fast", "--cycles", "200",
        "--jobs", str(jobs), "--checkpoint-dir", str(tmp_path / f"ckpt-{name}"),
        "--metrics-out", str(metrics), "--trace-out", str(trace),
        "--events-out", str(events), "--audit-out", str(stream),
    ])
    assert code == 0
    # no channel is still installed after main() returns
    assert obs.active() is None
    assert not (obs.enabled() or obs.events_enabled() or audit.enabled())
    return (
        json.loads(metrics.read_text()),
        json.loads(trace.read_text()),
        obs.read_events(events),
        audit.load_audit(str(stream)),
    )


def result_events(events: list[dict]) -> list[tuple]:
    """Per-experiment ``result`` events without wall-clock/worker fields."""
    return sorted((e["experiment"], e["status"]) for e in events if e["kind"] == "result")


@pytest_fork
def test_cli_metrics_are_schedule_invariant_and_schema_valid(tmp_path, capsys):
    serial_metrics, serial_trace, serial_events, serial_audit = run_cli_with_telemetry(
        tmp_path, "serial", 1
    )
    fleet_metrics, fleet_trace, fleet_events, fleet_audit = run_cli_with_telemetry(
        tmp_path, "fleet", 4
    )

    # the documented determinism guarantee: --jobs 1 and --jobs 4 agree
    # on every schedule-invariant counter, bit for bit
    assert obs.determinism_view(serial_metrics) == obs.determinism_view(fleet_metrics)
    assert serial_metrics["counters"]["experiment.ok"] == 3

    for doc in (serial_metrics, fleet_metrics):
        check(doc, load_schema("metrics.schema.json"), label="metrics.json")
    for doc in (serial_trace, fleet_trace):
        check(doc, load_schema("trace.schema.json"), label="trace.json")

    # the fleet run really merged worker shards: >1 process contributed
    assert len(fleet_metrics["processes"]) > 1
    assert {p["process"] for p in fleet_metrics["processes"]} == {"main", "worker"}

    # the decision stream: same runs, digests and columns on both schedules
    assert serial_audit["runs"]
    assert [audit._run_key(r) for r in serial_audit["runs"]] == [
        audit._run_key(r) for r in fleet_audit["runs"]
    ]
    for serial_run, fleet_run in zip(serial_audit["runs"], fleet_audit["runs"]):
        for column, _dtype in audit.COLUMNS:
            assert np.array_equal(serial_run["columns"][column], fleet_run["columns"][column])

    # the event stream: one result per experiment, same outcome
    assert result_events(serial_events) == result_events(fleet_events)
    assert [e for e, _ in result_events(serial_events)] == ["fig3_4", "tab3_ovh", "tab4_ovh"]

    # the terminal summary table rendered for the human
    out = capsys.readouterr().out
    assert "telemetry: spans by total wall-clock" in out
    assert "[checkpoints:" in out

    # telemetry off again after main() returns
    assert not obs.enabled()


def test_cli_profile_writes_slowest_spans(tmp_path, capsys):
    from repro.experiments.__main__ import main

    profile = tmp_path / "profile.txt"
    code = main([
        "tab3_ovh", "--fast", "--cycles", "200", "--jobs", "1",
        "--profile", str(profile), "--profile-top", "2",
    ])
    assert code == 0
    text = profile.read_text()
    assert "== profile 1/" in text
    assert "cumulative" in text


# ----------------------------------------------------------------------
# domain counters from the scheme simulators
# ----------------------------------------------------------------------

def test_schemes_emit_labelled_domain_counters():
    recorder = obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True))).recorder
    err_class = np.array([0, 2, 0, 3, 1, 2, 0, 0], dtype=np.int8)
    trace = synthetic_error_trace(err_class)
    schemes = [
        RazorScheme(),
        HfgScheme(),
        OcstScheme(),
        DcsScheme("icslt"),
        TridentScheme(),
    ]
    for scheme in schemes:
        result = scheme.simulate(trace)
        assert result.scheme == scheme.name
    counters = recorder.metrics.snapshot()["counters"]
    for scheme in schemes:
        label = f"{{scheme={scheme.name}}}"
        assert counters[f"scheme.runs{label}"] == 1
        assert f"scheme.errors{label}" in counters
        assert f"scheme.rollbacks{label}" in counters
        assert f"scheme.replays{label}" in counters
    # spot-check semantics: Razor rolls back on every max violation,
    # HFG avoids them all by stretching the guardband
    assert counters["scheme.rollbacks{scheme=Razor}"] == 3
    assert counters["scheme.errors{scheme=Razor}"] == 3
    assert counters["scheme.rollbacks{scheme=HFG}"] == 0
    assert counters["scheme.predicted{scheme=HFG}"] == 3
    # Trident sees the consecutive error too
    assert counters["scheme.ce_count{scheme=Trident}"] == 1


def test_schemes_are_silent_when_telemetry_off():
    trace = synthetic_error_trace(np.array([0, 2, 0], dtype=np.int8))
    result = RazorScheme().simulate(trace)
    assert result.errors_total == 1
    assert not obs.enabled()


# ----------------------------------------------------------------------
# stale shard detection (reused telemetry dirs)
# ----------------------------------------------------------------------

def test_scan_shards_skips_stale_and_counts_them(tmp_path):
    telemetry = obs.Telemetry(obs.TelemetrySpec(metrics=True, shard_dir=str(tmp_path)))
    telemetry.recorder.metrics.inc("experiment.ok")
    telemetry.flush()
    (shard,) = tmp_path.glob("shard-*.json")
    assert shard.name.startswith(f"shard-v{SHARD_VERSION}-{os.getpid()}-")

    doc = telemetry.recorder.snapshot_doc()
    # legacy unversioned filename from an older schema
    (tmp_path / "shard-4242-1.json").write_text(json.dumps(doc))
    # foreign schema version in the filename
    (tmp_path / f"shard-v{SHARD_VERSION + 1}-77-1.json").write_text(json.dumps(doc))
    # filename/header pid mismatch (leftover renamed across runs)
    mismatched = dict(doc, pid=doc["pid"] + 1)
    (tmp_path / f"shard-v{SHARD_VERSION}-{doc['pid']}-2.json").write_text(
        json.dumps(mismatched)
    )
    # corrupt shard (a writer died mid-write): stale under the same rule
    (tmp_path / f"shard-v{SHARD_VERSION}-55-3.json").write_text("{trunc")

    docs, stale = obs.scan_shards(tmp_path)
    assert len(docs) == 1 and docs[0]["pid"] == os.getpid()
    assert stale == 4


# ----------------------------------------------------------------------
# check_regression: the perfbench comparison
# ----------------------------------------------------------------------

def load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perf_record(wall_s=1.0, rate=100.0, correct=True):
    """A perfbench result line with one metric of each direction."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "rate": {"value": rate, "unit": "cycles/s"}}
    return {"correct": correct, "attempted": 1, "failed": int(not correct),
            "metrics": metrics}


def test_check_regression_compare_gates_on_bounds_and_correctness():
    compare = load_check_regression().compare
    benchmark = {
        "workloads": [{"name": "sweep"}],
        "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25},
            {"name": "rate", "better": "higher", "bound": 0.25},
        ],
    }
    base = {"sweep": [perf_record()] * 3}

    def failures(*change):
        return compare(benchmark, base, {"sweep": list(change)})[1]

    # within both bounds, and one slow outlier does not move the median
    assert failures(perf_record(1.2, 80.0), perf_record(1.2, 80.0), perf_record(9.0)) == []
    # beyond the bound, in each direction
    slower = failures(*[perf_record(wall_s=1.3)] * 3)
    assert len(slower) == 1 and slower[0].startswith("sweep wall_s")
    fewer = failures(*[perf_record(rate=70.0)] * 3)
    assert len(fewer) == 1 and fewer[0].startswith("sweep rate")
    # one incorrect run fails the gate however fast it was
    wrong = failures(perf_record(), perf_record(correct=False), perf_record())
    assert wrong == ["sweep: 1 of 3 run(s) not correct"]
    # a run that printed no result counts as not correct
    assert failures(perf_record(), None, perf_record()) == ["sweep: 1 of 3 run(s) not correct"]

    # the repo's own BENCHMARK.json: identical records pass
    real = json.loads((REPO / "BENCHMARK.json").read_text())
    record = {"correct": True, "metrics": {
        metric["name"]: {"value": 1.0, "unit": metric["unit"]} for metric in real["end_to_end"]
    }}
    runs = {entry["name"]: [record] * 3 for entry in real["workloads"]}
    assert compare(real, runs, runs)[1] == []


# ----------------------------------------------------------------------
# Table.render: numeric right-alignment and cell escaping
# ----------------------------------------------------------------------

def test_table_render_right_aligns_numeric_columns():
    table = Table("t", ["name", "count"])
    table.add_row("a", 5)
    table.add_row("bb", 123)
    lines = table.render().splitlines()
    assert lines[1] == "name  count"
    assert lines[3] == "a         5"
    assert lines[4] == "bb      123"


def test_table_render_keeps_text_columns_left_aligned():
    table = Table("t", ["name", "mixed"])
    table.add_row("a", 1)
    table.add_row("b", "x")  # a non-numeric cell makes the column textual
    lines = table.render().splitlines()
    assert lines[3].startswith("a     1")
    assert lines[4].startswith("b     x")


def test_table_render_escapes_separators_and_newlines():
    table = Table("t", ["name", "value"])
    table.add_row("evil|benchmark", "line1\nline2")
    rendered = table.render()
    assert "evil\\|benchmark" in rendered
    assert "line1\\nline2" in rendered
    assert len(rendered.splitlines()) == 4  # title, header, rule, one row
