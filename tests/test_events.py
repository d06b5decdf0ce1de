"""Tests for trace-id propagation and the structured event stream.

Covers the crash-safe JSONL event log and its bounded flight recorder
(:class:`repro.obs.EventLog`), the event vocabulary's mirror in the
checked-in schema, the ``progress`` CLI's event-stream summarisation,
and — end to end — a traced process-pool run whose merged trace carries
every worker's spans under the run's one trace id.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.progress_cli import (
    progress_main,
    render_summary,
    summarize_events,
)
from repro.obs.schema import check

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "schemas"
EVENTS_SCHEMA = json.loads((SCHEMA_DIR / "events.schema.json").read_text())


@pytest.fixture(autouse=True)
def observability_off_after_test():
    """Never leak a recorder or event log into the next test."""
    yield
    obs.uninstall()


# ----------------------------------------------------------------------
# EventLog: crash-safe JSONL + bounded flight recorder
# ----------------------------------------------------------------------

def test_event_log_appends_schema_valid_events(tmp_path):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path, trace_id="a" * 32)
    log.emit("run_start", backend="procpool", jobs=2, experiments=3)
    log.emit("scheduled", experiment="fig3_4")
    log.emit("started", experiment="fig3_4", worker="pid:7")
    log.emit("result", experiment="fig3_4", worker="pid:7",
             status="ok", elapsed_s=0.25)
    log.emit("run_end", status="ok", ok=3, total=3)
    log.close()

    events = obs.read_events(path)
    assert [e["kind"] for e in events] == [
        "run_start", "scheduled", "started", "result", "run_end",
    ]
    for index, event in enumerate(events):
        check(event, EVENTS_SCHEMA, label=f"event[{index}]")
        assert event["trace_id"] == "a" * 32
        assert event["v"] == obs.EVENTS_VERSION


def test_event_kinds_mirror_the_schema_enum():
    assert list(obs.EVENT_KINDS) == EVENTS_SCHEMA["properties"]["kind"]["enum"]


def test_event_log_drops_none_fields(tmp_path):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path)
    event = log.emit("scheduled", experiment="fig3_4", worker=None)
    assert "worker" not in event and "trace_id" not in event
    log.close()
    (replayed,) = obs.read_events(path)
    check(replayed, EVENTS_SCHEMA, label="event[0]")


def test_read_events_tolerates_truncated_tail_and_garbage(tmp_path):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path)
    log.emit("run_start", backend="inproc")
    log.emit("result", experiment="fig3_4", status="ok")
    log.close()
    with open(path, "a") as handle:
        handle.write("not json at all\n")
        handle.write('{"v": 1, "ts": 1.0, "pid": 2, "kind": "run_')  # died
    events = obs.read_events(path)
    assert [e["kind"] for e in events] == ["run_start", "result"]
    # a missing file is an empty replay, not an error
    assert obs.read_events(tmp_path / "nope.jsonl") == []


def test_flight_recorder_is_bounded_and_renders_compactly(tmp_path):
    log = obs.EventLog(None, flight_size=4)  # flight-only: no file
    for index in range(10):
        log.emit("started", experiment=f"e{index}", worker="w1")
    assert log.count == 10
    assert len(log.flight) == 4
    recent = log.recent(2)
    assert len(recent) == 2
    assert "started" in recent[-1] and "experiment=e9" in recent[-1]


def test_event_log_survives_unwritable_path(tmp_path):
    # a vanished directory degrades to flight-recorder-only, silently —
    # the event stream is telemetry, never a crash source
    log = obs.EventLog(tmp_path / "no" / "such" / "dir" / "events.jsonl")
    log.emit("run_start", backend="inproc")
    log.emit("run_end", status="ok")
    assert log._dead
    assert len(log.flight) == 2
    log.close()


def test_emit_is_a_noop_until_enabled(tmp_path):
    assert not obs.events_enabled()
    obs.emit("run_start", backend="inproc")  # must not raise
    assert obs.recent_events() == ()
    telemetry = obs.install(obs.Telemetry(
        obs.TelemetrySpec(events_path=str(tmp_path / "events.jsonl"))
    ))
    log = telemetry.events
    obs.emit("scheduled", experiment="fig3_4")
    assert obs.events_enabled() and log.count == 1
    assert any("scheduled" in line for line in obs.recent_events())
    obs.uninstall()
    assert not obs.events_enabled()
    obs.emit("run_end", status="ok")  # off again: dropped
    assert obs.read_events(tmp_path / "events.jsonl") == [log.flight[0]]


def test_ensure_worker_events_append_to_the_run_file(tmp_path):
    path = str(tmp_path / "events.jsonl")
    spec = obs.TelemetrySpec(events_path=path)
    inherited = obs.install(obs.Telemetry(spec))
    obs.emit("run_start", backend="procpool")
    inherited.pid += 1  # simulate a fork worker
    worker = obs.ensure_worker(spec)
    assert worker is not inherited and worker.events.path == path
    obs.emit("started", experiment="fig3_4")
    assert [e["kind"] for e in obs.read_events(path)] == ["run_start", "started"]
    # telemetry that records nothing drops the inherited sink
    obs.uninstall()
    obs.install(inherited)
    assert obs.ensure_worker(obs.TelemetrySpec()) is None
    assert not obs.events_enabled()


def test_disabled_event_stream_is_near_free():
    # same budget rationale as the disabled-telemetry guard: emission
    # from scheduling hot paths must cost one global read when off
    assert not obs.events_enabled()
    iterations = 50_000
    start = time.perf_counter()
    for _ in range(iterations):
        obs.emit("started", experiment="fig3_4", worker="w1")
    elapsed = time.perf_counter() - start
    assert elapsed < iterations * 20e-6, f"{elapsed:.3f}s for {iterations} no-ops"


# ----------------------------------------------------------------------
# progress: event-stream summarisation and rendering
# ----------------------------------------------------------------------

def make_event(kind, ts=0.0, **fields):
    event = {"v": 1, "ts": ts, "pid": 1, "kind": kind}
    event.update({k: v for k, v in fields.items() if v is not None})
    return event


def test_summarize_events_folds_lifecycle_and_worker_health():
    trace_id = "b" * 32
    events = [
        make_event("run_start", 1.0, backend="procpool", experiments=3,
                   trace_id=trace_id),
        make_event("scheduled", 1.1, experiment="fig3_4"),
        make_event("scheduled", 1.1, experiment="tab3_ovh"),
        make_event("scheduled", 1.1, experiment="tab4_ovh"),
        make_event("started", 1.2, experiment="fig3_4", worker="pid:1"),
        make_event("started", 1.3, experiment="tab3_ovh", worker="pid:2"),
        make_event("started", 1.4, experiment="tab4_ovh", worker="pid:1"),
        make_event("crash", 1.5, experiment="tab4_ovh", worker="pid:1",
                   reason="worker died"),
        make_event("resubmit", 1.6, experiment="tab4_ovh",
                   reason="worker died (1/1)"),
        make_event("result", 2.0, experiment="fig3_4", worker="pid:1",
                   status="ok", elapsed_s=0.6),
    ]
    summary = summarize_events(events)
    assert summary["run"]["trace_id"] == trace_id
    assert summary["run"]["backend"] == "procpool"
    assert not summary["run"]["ended"]
    assert summary["experiments"]["fig3_4"]["status"] == "ok"
    assert summary["experiments"]["fig3_4"]["elapsed_s"] == 0.6
    assert summary["experiments"]["tab3_ovh"]["status"] == "started"
    assert summary["experiments"]["tab4_ovh"]["status"] == "resubmit"
    assert set(summary["workers"]) == {"pid:1", "pid:2"}
    pid1 = summary["workers"]["pid:1"]
    assert pid1["completed"] == 1 and pid1["last_ts"] == 2.0
    # the crash took the task off its worker's in-flight set
    assert pid1["inflight"] == set()
    assert summary["workers"]["pid:2"]["inflight"] == {"tab3_ovh"}

    summary = summarize_events(
        events + [make_event("run_end", 2.1, status="ok", ok=2, total=3)]
    )
    assert summary["run"]["ended"] and summary["run"]["status"] == "ok"


def test_render_summary_shows_health_table():
    events = [
        make_event("run_start", 10.0, backend="procpool", experiments=1),
        make_event("started", 10.1, experiment="fig3_4", worker="w1"),
        make_event("result", 10.9, experiment="fig3_4", worker="w1",
                   status="ok", elapsed_s=0.8),
        make_event("run_end", 11.0, status="ok", ok=1, total=1),
    ]
    text = render_summary(summarize_events(events), now=12.0)
    assert "1/1 experiment(s) finished" in text
    assert "ended (ok)" in text
    assert "worker health" in text
    assert "w1" in text and "1.1" in text  # age = now - last_ts


def test_progress_cli_renders_an_event_file(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path)
    log.emit("run_start", backend="inproc", jobs=1, experiments=1)
    log.emit("result", experiment="fig3_4", worker="inproc", status="ok",
             elapsed_s=0.1)
    log.emit("run_end", status="ok", ok=1, total=1)
    log.close()
    assert progress_main(["--events", str(path), "--tail", "2"]) == 0
    out = capsys.readouterr().out
    assert "1/1 experiment(s) finished" in out
    assert "worker health" in out
    assert "run_end" in out  # the --tail raw lines

    assert progress_main(["--events", str(tmp_path / "missing.jsonl")]) == 0
    assert "no events" in capsys.readouterr().out


# ----------------------------------------------------------------------
# end to end: a traced process-pool run, worker shards merged under one
# trace id, events streamed
# ----------------------------------------------------------------------

pytest_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet test relies on cheap fork workers",
)


def _traced_run(tmp_path, jobs):
    """Run three experiments through ``run_experiments`` with telemetry on."""
    from repro.runtime.backends import run_experiments
    from tests.test_backends import tiny_spec

    trace_id = obs.new_trace_id()
    events_path = tmp_path / "events.jsonl"
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    telemetry = obs.install(obs.Telemetry(obs.TelemetrySpec(
        metrics=True,
        events_path=str(events_path),
        trace_id=trace_id,
        shard_dir=str(shard_dir),
    )))
    spec = tiny_spec(tmp_path, telemetry=telemetry.spec)
    report, _ = run_experiments(["fig3_4", "tab3_ovh", "tab4_ovh"], spec, jobs)
    assert all(outcome.ok for outcome in report.outcomes)

    # every span, the parent's and any worker's, carries the run's id,
    # and every event line conforms to the checked-in schema
    merged = telemetry.merge()
    assert merged.trace["metadata"]["trace_id"] == trace_id
    spans = [e for e in merged.trace["traceEvents"] if e["ph"] == "X"]
    assert all(e["args"].get("trace_id") == trace_id for e in spans)
    events = obs.read_events(events_path)
    assert {"run_start", "scheduled", "started", "result"} <= {e["kind"] for e in events}
    for index, event in enumerate(events):
        check(event, EVENTS_SCHEMA, label=f"event[{index}]")
        assert event["trace_id"] == trace_id
    return spans, summarize_events(events)["workers"]


def test_inproc_traced_run_names_one_inproc_worker(tmp_path):
    spans, workers = _traced_run(tmp_path, jobs=1)
    assert len({e["pid"] for e in spans}) == 1
    assert list(workers) == ["inproc"]
    assert workers["inproc"]["completed"] == 3 and not workers["inproc"]["inflight"]


@pytest_fork
def test_procpool_traced_run_carries_the_trace_id_into_workers(tmp_path):
    # the workers' shards joined the parent's in one merged trace
    spans, workers = _traced_run(tmp_path, jobs=2)
    assert len({e["pid"] for e in spans}) > 1

    # the parent's ``result`` events close the tasks the workers'
    # ``started`` events opened: no worker is left with an experiment
    # in flight
    assert any(label.startswith("pid:") for label in workers)
    assert {label: row["inflight"] for label, row in workers.items() if row["inflight"]} == {}
    assert sum(row["completed"] for row in workers.values()) == 3


@pytest_fork
def test_procpool_cli_run_shows_only_pool_processes_as_workers(tmp_path, capsys):
    """A ``--jobs 2`` run's event stream names a worker only where a
    task ran: the health table holds ``pid:N`` rows and nothing
    else — no row for the backend that scheduled them.  The count the
    CLI prints is the file's, workers' events included."""
    from repro.experiments.__main__ import main

    events_path = tmp_path / "events.jsonl"
    argv = ["fig3_4", "tab3_ovh", "tab4_ovh", "--fast", "--cycles", "200", "--jobs", "2"]
    code = main([*argv, "--events-out", str(events_path), "--out", str(tmp_path / "report.txt")])
    assert code == 0
    events = obs.read_events(events_path)
    assert f"events written to {events_path} ({len(events)} event(s))" in capsys.readouterr().out
    assert all("worker" not in e for e in events if e["kind"] == "scheduled")

    workers = summarize_events(events)["workers"]
    assert workers and all(label.startswith("pid:") for label in workers)
    assert sum(row["completed"] for row in workers.values()) == 3
