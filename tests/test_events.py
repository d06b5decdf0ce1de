"""Tests for distributed tracing and the structured event stream.

Covers the contracts PR 8 introduces: NTP-style clock-offset
estimation with explicit quality tiers (:class:`repro.obs.ClockSync`),
shard rebasing onto the coordinator timeline
(:func:`repro.obs.correct_shard`), the crash-safe JSONL event log and
its bounded flight recorder (:class:`repro.obs.EventLog`), the
``progress`` CLI's event-stream summarisation, and — end to end — a
traced remote fleet run whose merged trace carries clock-corrected
worker spans under one trace id.
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
from repro.obs.tracectx import (
    QUALITY_COARSE,
    QUALITY_SYNCED,
    QUALITY_UNCORRECTED,
    SYNCED_MAX_UNCERTAINTY_US,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "schemas"
EVENTS_SCHEMA = json.loads((SCHEMA_DIR / "events.schema.json").read_text())


@pytest.fixture(autouse=True)
def observability_off_after_test():
    """Never leak a recorder or event log into the next test."""
    yield
    obs.uninstall()


# ----------------------------------------------------------------------
# ClockSync: the NTP-style offset estimator
# ----------------------------------------------------------------------

def test_clock_sync_starts_uncorrected_and_identity():
    sync = obs.ClockSync()
    assert sync.quality == QUALITY_UNCORRECTED
    assert sync.correct_ts(123.4) == 123.4  # identity until a sample lands
    assert sync.describe() == QUALITY_UNCORRECTED


def test_clock_sync_zero_rtt_is_the_best_sample():
    # send and receive at the same instant: uncertainty 0, not an error
    sync = obs.ClockSync()
    assert sync.add_sample(1000.0, 400.0, 1000.0)
    assert sync.samples == 1 and sync.rejected == 0
    assert sync.offset_us == pytest.approx(-600.0)
    assert sync.uncertainty_us == 0.0
    # a later, wider sample must not displace the exact one
    assert sync.add_sample(2000.0, 1500.0, 2100.0)
    assert sync.offset_us == pytest.approx(-600.0)
    assert sync.uncertainty_us == 0.0


def test_clock_sync_rejects_negative_rtt():
    # receive before send is non-causal (chaos replay / clock bug)
    sync = obs.ClockSync()
    assert not sync.add_sample(1000.0, 500.0, 999.0)
    assert sync.samples == 0 and sync.rejected == 1
    assert sync.quality == QUALITY_UNCORRECTED
    assert sync.correct_ts(50.0) == 50.0


def test_clock_sync_single_sample_is_coarse():
    sync = obs.ClockSync()
    sync.add_sample(0.0, 500.0, 100.0)
    assert sync.quality == QUALITY_COARSE
    # two tight samples promote to synced
    sync.add_sample(200.0, 700.0, 300.0)
    assert sync.quality == QUALITY_SYNCED


def test_clock_sync_wide_round_trips_stay_coarse():
    # many samples, all wider than the synced threshold: never promoted
    sync = obs.ClockSync()
    wide = SYNCED_MAX_UNCERTAINTY_US * 4  # rtt/2 = 2x the threshold
    for start in (0.0, 10_000.0, 20_000.0):
        sync.add_sample(start, start + 1.0, start + wide)
    assert sync.samples == 3
    assert sync.quality == QUALITY_COARSE
    assert sync.uncertainty_us == pytest.approx(wide / 2)


def test_clock_sync_min_rtt_sample_wins():
    sync = obs.ClockSync()
    sync.add_sample(0.0, 10_000.0, 8_000.0)     # rtt 8ms, offset 6000
    sync.add_sample(100.0, 5_300.0, 500.0)      # rtt 400µs, offset 5000
    sync.add_sample(600.0, 12_000.0, 7_000.0)   # rtt 6.4ms: ignored
    assert sync.offset_us == pytest.approx(5000.0)
    assert sync.uncertainty_us == pytest.approx(200.0)
    assert sync.quality == QUALITY_SYNCED
    assert sync.describe() == "synced ±0.2ms"


def test_clock_sync_corrects_large_skew_and_clamps_at_zero():
    # a worker whose timeline epoch is ~17 minutes ahead (fresh process
    # vs long-lived coordinator): spans must land near coordinator time
    sync = obs.ClockSync()
    skew = 1e9
    sync.add_sample(1000.0, skew + 1500.0, 2000.0)
    assert sync.offset_us == pytest.approx(skew, rel=1e-6)
    assert sync.correct_ts(skew + 3000.0) == pytest.approx(3000.0, abs=1.0)
    # sub-uncertainty underflow at run start clamps instead of going
    # negative (the trace schema rejects negative timestamps)
    assert sync.correct_ts(skew - 400.0) == 0.0


def test_clock_sync_as_dict_round_trips_the_tier():
    sync = obs.ClockSync()
    sync.add_sample(0.0, 200.0, 100.0)
    info = sync.as_dict()
    assert info["quality"] == QUALITY_COARSE
    assert info["samples"] == 1 and info["rejected"] == 0
    assert info["offset_us"] == pytest.approx(150.0)
    assert info["uncertainty_us"] == pytest.approx(50.0)


# ----------------------------------------------------------------------
# correct_shard: rebasing a worker shard onto the coordinator timeline
# ----------------------------------------------------------------------

def make_shard_doc(tmp_path, span_ts: float):
    recorder = obs.TelemetryRecorder(process="remote-worker")
    with recorder.span("worker.remote_task", {"experiment": "fig3_4"}):
        recorder.metrics.inc("unit.tasks")
    doc = recorder.snapshot_doc()
    for event in doc["trace_events"]:
        if event["ph"] == "X":
            event["ts"] = span_ts
    return doc


def test_correct_shard_shifts_spans_and_labels_the_lane(tmp_path):
    sync = obs.ClockSync()
    sync.add_sample(0.0, 7_000.0, 200.0)  # offset ~6900µs
    doc = make_shard_doc(tmp_path, span_ts=10_000.0)
    corrected = obs.correct_shard(doc, sync)

    spans = [e for e in corrected["trace_events"] if e["ph"] == "X"]
    assert spans[0]["ts"] == pytest.approx(10_000.0 - sync.offset_us, abs=0.1)
    meta = [e for e in corrected["trace_events"]
            if e["ph"] == "M" and e["name"] == "process_name"]
    assert meta and "[clock: coarse" in meta[0]["args"]["name"]
    assert corrected["clock"]["quality"] == QUALITY_COARSE
    # the original document is untouched (correction is a copy)
    assert doc["trace_events"] != corrected["trace_events"]
    assert "clock" not in doc
    # metrics ride through unshifted: durations are offset-free
    assert corrected["metrics"] == doc["metrics"]


def test_correct_shard_uncorrected_passes_timestamps_through(tmp_path):
    doc = make_shard_doc(tmp_path, span_ts=42.5)
    corrected = obs.correct_shard(doc, obs.ClockSync())
    spans = [e for e in corrected["trace_events"] if e["ph"] == "X"]
    assert spans[0]["ts"] == 42.5
    meta = [e for e in corrected["trace_events"]
            if e["ph"] == "M" and e["name"] == "process_name"]
    assert "[clock: uncorrected]" in meta[0]["args"]["name"]


def test_received_remote_shards_reach_trace_clock_corrected_in_memory(
    tmp_path, monkeypatch
):
    # the coordinator's telemetry has no shard directory: what remote
    # workers returned must reach trace.json without a disk round trip
    from repro.runtime.backends import RemoteBackend, RemoteOptions

    telemetry = obs.install(obs.Telemetry(obs.TelemetrySpec(metrics=True)))
    doc = make_shard_doc(tmp_path, span_ts=10_000.0)
    sync = obs.ClockSync()
    sync.add_sample(0.0, 7_000.0, 200.0)  # offset ~6900µs
    backend = RemoteBackend(RemoteOptions(workers=("127.0.0.1:1",)))
    backend._shards_by_pid = {doc["pid"]: doc}
    backend._clock_by_pid = {doc["pid"]: sync}

    def no_disk(*args, **kwargs):
        raise AssertionError("received shards must not be scanned from disk")

    monkeypatch.setattr(obs, "scan_shards", no_disk)
    backend._receive_worker_shards()
    merged = telemetry.merge()
    assert list(tmp_path.iterdir()) == []

    spans = [e for e in merged.trace["traceEvents"]
             if e["ph"] == "X" and e["name"] == "worker.remote_task"]
    assert len(spans) == 1
    assert spans[0]["ts"] == pytest.approx(10_000.0 - sync.offset_us, abs=0.1)
    lanes = [e["args"]["name"] for e in merged.trace["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert any("remote-worker" in lane and "[clock: coarse" in lane for lane in lanes)
    assert merged.metrics["counters"]["clock.shards_corrected"] == 1
    assert merged.metrics["counters"]["unit.tasks"] == 1
    assert {p["process"] for p in merged.metrics["processes"]} == {"main", "remote-worker"}


# ----------------------------------------------------------------------
# EventLog: crash-safe JSONL + bounded flight recorder
# ----------------------------------------------------------------------

def test_event_log_appends_schema_valid_events(tmp_path):
    path = tmp_path / "events.jsonl"
    log = obs.EventLog(path, trace_id="a" * 32)
    log.emit("run_start", backend="remote", jobs=2, experiments=3)
    log.emit("scheduled", experiment="fig3_4", worker="w1")
    log.emit("clock", worker="w1", tier="synced",
             offset_us=12.5, uncertainty_us=3.0)
    log.emit("result", experiment="fig3_4", worker="w1",
             status="ok", elapsed_s=0.25)
    log.emit("run_end", status="ok", ok=3, total=3)
    log.close()

    events = obs.read_events(path)
    assert [e["kind"] for e in events] == [
        "run_start", "scheduled", "clock", "result", "run_end",
    ]
    for index, event in enumerate(events):
        check(event, EVENTS_SCHEMA, label=f"event[{index}]")
        assert event["trace_id"] == "a" * 32
        assert event["v"] == obs.EVENTS_VERSION


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
        log.emit("heartbeat", experiment=f"e{index}", worker="w1")
    assert log.count == 10
    assert len(log.flight) == 4
    recent = log.recent(2)
    assert len(recent) == 2
    assert "heartbeat" in recent[-1] and "experiment=e9" in recent[-1]


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
        obs.emit("heartbeat", experiment="fig3_4", worker="w1")
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
        make_event("run_start", 1.0, backend="remote", experiments=2,
                   trace_id=trace_id),
        make_event("scheduled", 1.1, experiment="fig3_4", worker="w1"),
        make_event("scheduled", 1.1, experiment="tab3_ovh", worker="w2"),
        make_event("claimed", 1.2, experiment="fig3_4", worker="w1"),
        make_event("clock", 1.3, worker="w1", tier="synced"),
        make_event("started", 1.4, experiment="fig3_4", worker="w1"),
        make_event("steal", 1.5, experiment="tab3_ovh", worker="w1",
                   victim="w2"),
        make_event("claimed", 1.5, experiment="tab3_ovh", worker="w1"),
        make_event("result", 2.0, experiment="fig3_4", worker="w1",
                   status="ok", elapsed_s=0.6),
    ]
    summary = summarize_events(events)
    assert summary["run"]["trace_id"] == trace_id
    assert summary["run"]["backend"] == "remote"
    assert not summary["run"]["ended"]
    assert summary["experiments"]["fig3_4"]["status"] == "ok"
    assert summary["experiments"]["fig3_4"]["elapsed_s"] == 0.6
    assert summary["experiments"]["tab3_ovh"]["status"] == "claimed"
    w1 = summary["workers"]["w1"]
    assert w1["completed"] == 1 and w1["steals"] == 1
    assert w1["tier"] == "synced"
    assert w1["inflight"] == {"tab3_ovh"}
    # the steal moved the task off the victim's in-flight set
    assert summary["workers"]["w2"]["inflight"] == set()

    summary = summarize_events(
        events + [make_event("run_end", 2.1, status="ok", ok=2, total=2)]
    )
    assert summary["run"]["ended"] and summary["run"]["status"] == "ok"


def test_render_summary_shows_health_table():
    events = [
        make_event("run_start", 10.0, backend="remote", experiments=1),
        make_event("claimed", 10.1, experiment="fig3_4", worker="w1"),
        make_event("result", 10.9, experiment="fig3_4", worker="w1",
                   status="ok", elapsed_s=0.8),
        make_event("run_end", 11.0, status="ok", ok=1, total=1),
    ]
    text = render_summary(summarize_events(events), now=12.0)
    assert "1/1 experiment(s) finished" in text
    assert "ended (ok)" in text
    assert "worker health" in text
    assert "w1" in text and "1.1" in text  # hb age = now - last_ts


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
# end to end: a traced remote fleet run, shards rebased, events streamed
# ----------------------------------------------------------------------

pytest_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fleet test relies on cheap fork workers",
)


@pytest_fork
def test_remote_traced_run_returns_clock_corrected_worker_shards(tmp_path):
    from repro.runtime.backends import RemoteBackend, RemoteOptions
    from tests.test_backends import tiny_spec, worker_fleet

    trace_id = obs.new_trace_id()
    events_path = tmp_path / "events.jsonl"
    telemetry = obs.install(obs.Telemetry(obs.TelemetrySpec(
        metrics=True,
        events_path=str(events_path),
        trace_id=trace_id,
        parent_span_id=obs.new_span_id(),
    )))
    spec = tiny_spec(tmp_path, telemetry=telemetry.spec)
    with worker_fleet(2) as addresses:
        backend = RemoteBackend(RemoteOptions(
            workers=tuple(addresses), heartbeat_s=0.1,
        ))
        report, _ = backend.run(["fig3_4", "tab3_ovh"], spec)
    assert all(outcome.ok for outcome in report.outcomes)

    # the workers' telemetry came back over the result frames and was
    # rebased onto the coordinator timeline, in memory
    docs = telemetry.received
    assert docs
    for doc in docs:
        assert doc["process"] == "remote-worker"
        assert doc["clock"]["quality"] in (QUALITY_SYNCED, QUALITY_COARSE)
    worker_spans = [
        event
        for doc in docs
        for event in doc["trace_events"]
        if event["ph"] == "X"
    ]
    assert worker_spans
    assert all(e["args"].get("trace_id") == trace_id for e in worker_spans)
    assert all(e["ts"] >= 0 for e in worker_spans)
    merged = telemetry.merge()
    merged_spans = [e for e in merged.trace["traceEvents"] if e["ph"] == "X"]
    assert all(span in merged_spans for span in worker_spans)

    # the event stream recorded the full task lifecycle under the run's
    # trace id, and every line conforms to the checked-in schema
    events = obs.read_events(events_path)
    kinds = {event["kind"] for event in events}
    assert {"scheduled", "claimed", "started", "result", "clock"} <= kinds
    for index, event in enumerate(events):
        check(event, EVENTS_SCHEMA, label=f"event[{index}]")
        assert event["trace_id"] == trace_id
