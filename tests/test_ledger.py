"""Tests for the run ledger, trend engine, and HTML dashboard.

Covers the observability guarantees this layer claims: crash-safe
JSONL appends (truncated-last-line tolerance and repair), atomic
retention rewrites, structural diffs over disjoint metric sets, the
MAD z-score drift detector on synthetic trends, a dashboard that is
genuinely self-contained HTML, per-scheme domain counters from the
scheme simulators, stale-shard skipping, the strict regression gate,
and the table renderer's alignment/escaping fixes.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
from html.parser import HTMLParser
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
from repro.obs import dashboard, trends
from repro.obs.ledger import LEDGER_VERSION, RunLedger, build_record
from repro.obs.recorder import SHARD_VERSION
from repro.obs.schema import check
from tests.util import synthetic_error_trace

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def telemetry_off_after_test():
    yield
    obs.uninstall()


def make_record(run_id="run", **counters):
    """A minimal current-version record for trend/drift tests."""
    return {
        "version": LEDGER_VERSION,
        "run_id": run_id,
        "timestamp": 0.0,
        "git_rev": "deadbeef",
        "config_digest": "cfg",
        "experiments": {},
        "counters": dict(counters),
        "domain": {},
        "checkpoint": {"hits": 0, "misses": 0, "hit_rate": None},
        "spans": {},
        "span_total_s": 0.0,
        "science": {},
        "notes": "",
    }


# ----------------------------------------------------------------------
# append/rewrite crash safety
# ----------------------------------------------------------------------


def test_append_and_read_round_trip(tmp_path):
    ledger = RunLedger(tmp_path)
    for i in range(3):
        ledger.append(make_record(run_id=f"r{i}", x=i))
    records = ledger.records()
    assert [r["run_id"] for r in records] == ["r0", "r1", "r2"]
    # one line per record, each terminated
    assert ledger.path.read_text().count("\n") == 3


def test_truncated_last_line_is_tolerated_and_repaired(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append(make_record(run_id="ok0"))
    ledger.append(make_record(run_id="ok1"))
    # simulate a crash mid-append: last line cut short, no newline
    payload = ledger.path.read_bytes()
    ledger.path.write_bytes(payload[:-20])
    assert [r["run_id"] for r in ledger.records()] == ["ok0"]
    # the next append must terminate the fragment, not extend it
    ledger.append(make_record(run_id="ok2"))
    assert [r["run_id"] for r in ledger.records()] == ["ok0", "ok2"]


def test_reader_tolerates_concurrent_service_appends(tmp_path):
    """A ledger CLI reader racing the service's appender sees only
    whole records, in order — never a torn or duplicated one.

    This is the contract the service layer leans on: ``GET /ledger``
    and ``ledger list`` read while the job runner appends through the
    same ``O_APPEND`` one-line-per-write path.
    """
    import threading

    ledger = RunLedger(tmp_path)
    expected_keys = set(make_record())
    stop = threading.Event()
    torn: list[dict] = []

    def reader():
        while not stop.is_set():
            for i, record in enumerate(ledger.records()):
                # every observed record is complete and in append order
                if set(record) != expected_keys or record["run_id"] != f"r{i}":
                    torn.append(record)

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        for i in range(150):
            ledger.append(make_record(run_id=f"r{i}"))
    finally:
        stop.set()
        thread.join(timeout=60)
    assert torn == []
    assert [r["run_id"] for r in ledger.records()] == [
        f"r{i}" for i in range(150)
    ]


def test_prune_is_atomic_and_keeps_newest(tmp_path):
    ledger = RunLedger(tmp_path)
    for i in range(5):
        ledger.append(make_record(run_id=f"r{i}"))
    assert ledger.prune(keep=2) == 3
    assert [r["run_id"] for r in ledger.records()] == ["r3", "r4"]
    assert ledger.prune(keep=2) == 0
    # no temp files left behind
    assert [p.name for p in tmp_path.iterdir()] == [ledger.path.name]


def test_resolve_by_index_prefix_and_ambiguity(tmp_path):
    ledger = RunLedger(tmp_path)
    ledger.append(make_record(run_id="abc-1"))
    ledger.append(make_record(run_id="abd-2"))
    assert ledger.resolve("-1")["run_id"] == "abd-2"
    assert ledger.resolve("0")["run_id"] == "abc-1"
    assert ledger.resolve("abc")["run_id"] == "abc-1"
    with pytest.raises(LookupError, match="ambiguous"):
        ledger.resolve("ab")
    with pytest.raises(LookupError, match="no ledger record"):
        ledger.resolve("zzz")


def test_build_record_matches_checked_in_schema(tmp_path):
    metrics_doc = {
        "counters": {
            "experiment.ok": 2,
            "checkpoint.hits": 3,
            "checkpoint.misses": 1,
            "scheme.errors{scheme=Razor}": 7,
        },
        "histograms": {"span.runner.chip.s": {"sum": 1.5}},
    }
    record = build_record(metrics_doc=metrics_doc, rev="abc123")
    schema = json.loads(
        (REPO / "benchmarks" / "schemas" / "ledger.schema.json").read_text()
    )
    check(record, schema, label="record")
    # checkpoint counters are schedule-dependent: present in the
    # checkpoint section, absent from the determinism-view counters
    assert record["checkpoint"] == {"hits": 3, "misses": 1, "hit_rate": 0.75}
    assert "checkpoint.hits" not in record["counters"]
    assert record["domain"] == {"scheme.errors{scheme=Razor}": 7}
    assert record["spans"] == {"runner.chip": 1.5}


# ----------------------------------------------------------------------
# diff on disjoint metric sets
# ----------------------------------------------------------------------


def test_diff_records_handles_disjoint_metric_sets():
    a = make_record(run_id="a", shared=10, gone=1)
    b = make_record(run_id="b", shared=12, fresh=2)
    result = trends.diff_records(a, b)
    assert result["only_in_a"] == ["counter.gone"]
    assert result["only_in_b"] == ["counter.fresh"]
    changed = result["changed"]["counter.shared"]
    assert changed["delta"] == 2.0
    assert changed["rel"] == pytest.approx(0.2)
    assert result["counter_drift"] == 1


def test_diff_records_zero_drift_and_tolerance():
    a = make_record(run_id="a", x=100)
    b = make_record(run_id="b", x=101)
    assert trends.diff_records(a, a)["changed"] == {}
    assert trends.diff_records(a, b, rel_tolerance=0.02)["changed"] == {}
    assert trends.diff_records(a, b)["counter_drift"] == 1


# ----------------------------------------------------------------------
# MAD drift detection on synthetic trends
# ----------------------------------------------------------------------


def test_robust_z_zero_mad_semantics():
    window = [5.0, 5.0, 5.0, 5.0]
    assert trends.robust_z(5.0, window) == 0.0
    assert trends.robust_z(5.1, window) == math.inf
    noisy = [10.0, 11.0, 10.0, 12.0, 11.0]
    assert abs(trends.robust_z(11.0, noisy)) < 1.0
    assert trends.robust_z(30.0, noisy) > 10.0


def test_detect_drift_flags_step_change_not_noise():
    steady = [make_record(run_id=f"s{i}", metric=10 + (i % 2)) for i in range(6)]
    quiet = trends.detect_drift(steady + [make_record(run_id="q", metric=11)])
    assert quiet and not any(f["drifted"] for f in quiet)
    loud = trends.detect_drift(steady + [make_record(run_id="l", metric=40)])
    (finding,) = [f for f in loud if f["metric"] == "counter.metric"]
    assert finding["drifted"] and finding["z"] > finding["threshold"]


def test_detect_drift_needs_history_and_skips_foreign_versions():
    records = [make_record(run_id=f"r{i}", x=1) for i in range(2)]
    assert trends.detect_drift(records) == []
    old = dict(make_record(run_id="old", x=999), version=LEDGER_VERSION + 1)
    series = trends.history([old] + [make_record(run_id=f"n{i}", x=1) for i in range(3)])
    assert series["counter.x"] == [1.0, 1.0, 1.0]


def test_timing_metrics_use_looser_threshold():
    records = [make_record(run_id=f"r{i}") for i in range(5)]
    for i, record in enumerate(records):
        record["spans"] = {"runner.chip": 1.0 + 0.05 * (i % 2)}
    records.append(make_record(run_id="latest"))
    records[-1]["spans"] = {"runner.chip": 1.2}
    findings = trends.detect_drift(records)
    (finding,) = [f for f in findings if f["metric"] == "span.runner.chip"]
    assert finding["threshold"] == 6.0


# ----------------------------------------------------------------------
# dashboard HTML: valid, self-contained, sparkline per series
# ----------------------------------------------------------------------


class _Audit(HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags = []
        self.sparks = 0

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        if tag == "svg" and ("class", "spark") in attrs:
            self.sparks += 1


def test_dashboard_is_selfcontained_with_sparkline_per_series(tmp_path):
    ledger = RunLedger(tmp_path)
    for i in range(4):
        record = make_record(run_id=f"r{i}", ok=3, errors=i)
        record["spans"] = {"runner.chip": 1.0 + i}
        record["span_total_s"] = 1.0 + i
        record["domain"] = {
            "scheme.errors{scheme=Razor}": 5 + i,
            "scheme.rollbacks{scheme=Razor}": 5 + i,
            "scheme.errors{scheme=Trident}": 2,
            "scheme.rollbacks{scheme=Trident}": 1,
        }
        ledger.append(record)
    records = ledger.records()
    html_text = dashboard.render_dashboard(records, trace_path="trace.json")

    audit = _Audit()
    audit.feed(html_text)
    audit.close()
    # every ledger series gets a sparkline
    assert audit.sparks == len(trends.history(records))
    # self-contained: no scripts, stylesheets, images, or frames
    assert not {"script", "link", "img", "iframe"} & set(audit.tags)
    assert "http" not in html_text.replace("https://ui.perfetto.dev", "")
    # per-scheme breakdown pivots the labelled domain counters
    assert "Razor" in html_text and "Trident" in html_text
    assert "rollbacks" in html_text


def test_dashboard_renders_empty_ledger():
    html_text = dashboard.render_dashboard([])
    audit = _Audit()
    audit.feed(html_text)
    assert audit.sparks == 0
    assert "no data yet" in html_text


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
# check_regression: --strict gating and --ledger mode
# ----------------------------------------------------------------------


def load_check_regression():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_regression_strict_gates_metric_drift(tmp_path):
    cr = load_check_regression()
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"counters": {"experiment.ok": 2}, "histograms": {}}))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps({"metrics": {"tolerance": 0.20, "counters": {"experiment.ok": 1}}})
    )
    args = [
        "--metrics", str(metrics), "--baseline", str(baseline),
        "--out", str(tmp_path / "report.json"),
    ]
    assert cr.main(args) == 0  # >20% drift warns by default
    assert cr.main(args + ["--strict"]) == 1  # --strict turns it into a gate
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["strict"] is True


def test_check_regression_ledger_mode_gates_trajectory(tmp_path):
    cr = load_check_regression()
    ledger = RunLedger(tmp_path / "L")
    for i in range(6):
        ledger.append(make_record(run_id=f"r{i}", metric=10))
    ledger.append(make_record(run_id="bad", metric=50))
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({}))
    args = [
        "--ledger", str(tmp_path / "L"), "--baseline", str(baseline),
        "--out", str(tmp_path / "report.json"),
    ]
    assert cr.main(args) == 0
    assert cr.main(args + ["--strict"]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert any(f["metric"] == "counter.metric" for f in report["ledger"])
    assert report["ledger_warnings"]


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


# ----------------------------------------------------------------------
# end-to-end: two CLI runs, zero counter drift, dashboard renders
# ----------------------------------------------------------------------


def test_cli_ledger_workflow_end_to_end(tmp_path, capsys):
    from repro.experiments.__main__ import main

    ledger_dir = tmp_path / "L"
    for _ in range(2):
        code = main([
            "fig3_4", "--fast", "--cycles", "200", "--jobs", "1",
            "--ledger-dir", str(ledger_dir),
        ])
        assert code == 0
    out = capsys.readouterr().out
    assert "ledger record" in out

    records = RunLedger(ledger_dir).records()
    assert len(records) == 2
    schema = json.loads(
        (REPO / "benchmarks" / "schemas" / "ledger.schema.json").read_text()
    )
    for record in records:
        check(record, schema, label="ledger record")
    assert records[0]["experiments"]["fig3_4"]["status"] == "ok"
    assert records[0]["science"]  # headline figure outputs captured
    # the domain section carries the new instrumentation
    assert any(name.startswith("etrace.") for name in records[0]["domain"])

    # same rev + same config => zero drift on determinism-view counters
    code = main([
        "ledger", "diff", "0", "-1", "--strict", "--ledger-dir", str(ledger_dir),
    ])
    assert code == 0
    assert "counter drift (determinism view): 0" in capsys.readouterr().out

    # the dashboard is written, parses, and has >= 10 sparkline series
    out_html = tmp_path / "dashboard.html"
    code = main([
        "ledger", "html", "--ledger-dir", str(ledger_dir), "--out", str(out_html),
    ])
    assert code == 0
    audit = _Audit()
    audit.feed(out_html.read_text())
    assert audit.sparks >= 10
    assert not {"script", "link", "img"} & set(audit.tags)

    code = main(["ledger", "list", "--ledger-dir", str(ledger_dir)])
    assert code == 0
    assert "2 run(s)" in capsys.readouterr().out
