"""Tests for the cycle-audit flight recorder (:mod:`repro.obs.audit`).

Covers the guarantees the audit layer claims: near-zero cost while
disabled, seed-deterministic (schedule-independent) sampling, shard
round-trips whose merge is order-independent and deduplicating,
``--jobs 1`` == ``--jobs 2`` streams, Perfetto-loadable exports,
cycle-level blame on the forced-choke fixture, and reports that stay
byte-identical whether audit is on or off.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.obs import audit
from repro.obs.schema import check
from repro.qa.circuits import synthetic_error_trace

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "schemas"

pytest_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel audit tests rely on cheap fork workers",
)


def load_schema(name: str) -> dict:
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture(autouse=True)
def audit_off_after_test():
    """Never leak a process-global audit sink into the next test."""
    yield
    obs.uninstall()


def record_run(policy: str, n: int = 500, seed: int = 1, scheme: str = "unit"):
    """One finished scheme run with a deterministic pseudo-random load."""
    sink = audit.AuditRecorder(policy=policy)
    run = sink.begin_run(
        kind="scheme", scheme=scheme, benchmark="synthetic", corner="NTC",
        base_cycles=n, clock_period=1000.0, hold_constraint=120.0,
    )
    rng = np.random.default_rng(seed)
    for cycle in np.flatnonzero(rng.random(n) < 0.2):
        run.decision(int(cycle), 2, audit.DEC_DETECT, penalty=11)
    run.finish()
    return run.to_block()


# ----------------------------------------------------------------------
# sampling policies
# ----------------------------------------------------------------------

def test_policy_parse_normalises_and_rejects():
    assert audit.SamplePolicy("full").text == "full"
    assert audit.SamplePolicy("window:10:5").text == "window:10:5"
    assert audit.SamplePolicy("reservoir:64").text == "reservoir:64:0"
    assert audit.SamplePolicy("reservoir:64:7").text == "reservoir:64:7"
    for bad in ("full:1", "window:10", "window:-1:5", "window:0:0",
                "reservoir:0", "reservoir", "ring:4", ""):
        with pytest.raises(ValueError):
            audit.SamplePolicy(bad)


def test_window_policy_keeps_only_the_window():
    block = record_run("window:100:50")
    cycles = block["columns"]["cycle"]
    assert len(cycles)
    assert cycles.min() >= 100 and cycles.max() < 150
    # events_seen still counts everything the run produced
    assert block["events_seen"] > len(cycles)


def test_reservoir_is_capped_sorted_and_seed_deterministic():
    first = record_run("reservoir:32:7")
    second = record_run("reservoir:32:7")
    cycles = first["columns"]["cycle"]
    assert len(cycles) == 32
    assert (np.diff(cycles) > 0).all()  # re-sorted by cycle at finish
    np.testing.assert_array_equal(cycles, second["columns"]["cycle"])
    assert first["digest"] == second["digest"]
    # a different policy seed picks a different sample
    other = record_run("reservoir:32:8")
    assert other["digest"] != first["digest"]


def test_full_policy_replays_counters_exactly():
    block = record_run("full")
    counters = audit.replay_counters(block)
    assert counters["flushes"] == block["events_seen"]
    assert counters["penalty_cycles"] == 11 * block["events_seen"]


def test_replay_counters_guards():
    block = record_run("reservoir:8")
    with pytest.raises(ValueError):
        audit.replay_counters(block)  # sampled: not exact
    etrace = dict(record_run("full"), kind="etrace")
    with pytest.raises(ValueError):
        audit.replay_counters(etrace)  # no scheme decisions to replay


@pytest.mark.parametrize("policy", ["full", "window:100:50", "reservoir:16:3"])
def test_batch_decisions_match_per_event_calls(policy):
    """decisions() over arrays (or scalars) is one decision() per event."""
    rng = np.random.default_rng(5)
    n = 400
    cycles = np.flatnonzero(rng.random(n) < 0.3)
    half = len(cycles) // 2
    err = rng.integers(0, 4, len(cycles))
    decision = rng.integers(0, 6, half)
    stall = rng.integers(0, 3, half)
    penalty = rng.integers(0, 20, half)
    novel = rng.random(half) < 0.5
    t_late, t_early = rng.random(n) * 1200.0, rng.random(n) * 200.0

    def record(emit):
        sink = audit.AuditRecorder(policy=policy)
        run = sink.begin_run(
            kind="scheme",
            scheme="unit",
            benchmark="synthetic",
            corner="NTC",
            base_cycles=n,
            clock_period=1000.0,
            hold_constraint=120.0,
            t_late=t_late,
            t_early=t_early,
        )
        emit(run)
        return run.finish().to_block()

    def per_event(run):
        for i, cycle in enumerate(cycles.tolist()):
            if i < half:
                run.decision(
                    cycle,
                    int(err[i]),
                    int(decision[i]),
                    stall=int(stall[i]),
                    penalty=int(penalty[i]),
                    novel=bool(novel[i]),
                )
            else:
                run.decision(cycle, int(err[i]), audit.DEC_DETECT, penalty=11)

    def batched(run):
        run.decisions(
            cycles[:half], err[:half], decision, stall=stall, penalty=penalty, novel=novel
        )
        run.decisions(cycles[half:], err[half:], audit.DEC_DETECT, penalty=11)

    expected, got = record(per_event), record(batched)
    assert got["events_seen"] == expected["events_seen"] == len(cycles)
    assert got["digest"] == expected["digest"]
    for name, column in expected["columns"].items():
        assert got["columns"][name].dtype == column.dtype
        np.testing.assert_array_equal(got["columns"][name], column)


# ----------------------------------------------------------------------
# shard round-trip and merge determinism
# ----------------------------------------------------------------------

def test_shard_roundtrip_and_order_independent_merge(tmp_path):
    blocks = [record_run("full", seed=s, scheme=f"s{s}") for s in (1, 2, 3)]
    audit.write_audit(str(tmp_path / "a.npz"), blocks, trace_id="t-1")
    loaded = audit.load_audit(str(tmp_path / "a.npz"))
    assert [run["digest"] for run in loaded["runs"]] == [
        block["digest"] for block in blocks
    ]
    for run, block in zip(loaded["runs"], blocks):
        for name, _dtype in audit.COLUMNS:
            np.testing.assert_array_equal(run["columns"][name],
                                          block["columns"][name])

    # merge is insensitive to document order and collapses duplicates
    doc_a = {"runs": blocks[:2]}
    doc_b = {"runs": blocks[1:]}
    forward = audit.merge_audit([doc_a, doc_b])
    reverse = audit.merge_audit([doc_b, doc_a])
    assert [audit._run_key(r) for r in forward] == [
        audit._run_key(r) for r in reverse
    ]
    assert len(forward) == 3


def test_worker_shard_scan_skips_stale(tmp_path):
    telemetry = obs.install(obs.Telemetry(obs.TelemetrySpec(
        audit_policy="full", shard_dir=str(tmp_path), trace_id="t-2",
    )))
    run = audit.get().begin_run(
        kind="scheme", scheme="unit", benchmark="b", corner="NTC",
        base_cycles=8, clock_period=1000.0, hold_constraint=120.0,
    )
    run.decision(3, 2, audit.DEC_DETECT, penalty=5)
    run.finish()
    telemetry.flush()
    assert not list(tmp_path.glob("*.json"))  # metrics channel off: npz only
    # a stale shard from an older layout version must be skipped
    (tmp_path / "shard-v0-1-1.npz").write_bytes(b"junk")
    documents, stale = audit.scan_audit_shards(str(tmp_path))
    assert len(documents) == 1 and stale == 1
    merged = audit.merge_audit(documents)
    assert len(merged) == 1
    assert audit.replay_counters(merged[0])["flushes"] == 1


def test_ensure_worker_lifecycle(tmp_path):
    inherited = obs.install(obs.Telemetry(obs.TelemetrySpec(audit_policy="full")))
    inherited.pid += 1  # simulate a fork-inherited parent sink
    assert obs.ensure_worker(obs.TelemetrySpec()) is None  # audit off drops it
    assert audit.get() is None

    inherited = obs.install(obs.Telemetry(obs.TelemetrySpec(audit_policy="full")))
    inherited.pid += 1
    spec = obs.TelemetrySpec(audit_policy="reservoir:8", shard_dir=str(tmp_path), trace_id="t")
    fresh = obs.ensure_worker(spec)
    assert fresh is not None and fresh.pid != inherited.pid
    assert audit.get() is fresh.audit and fresh.audit.policy.text == "reservoir:8:0"
    assert obs.ensure_worker(spec) is fresh  # idempotent
    obs.flush_worker()
    documents, stale = audit.scan_audit_shards(str(tmp_path))
    assert documents[0]["runs"] == []  # nothing recorded
    assert stale == 0
    obs.uninstall()
    obs.flush_worker()  # must be safe with no sink installed


# ----------------------------------------------------------------------
# export, timeline, and the checked-in schema
# ----------------------------------------------------------------------

def test_trace_export_conforms_to_checked_in_schema():
    blocks = [record_run("full", n=60, seed=4)]
    doc = audit.audit_trace_document(blocks, trace_id="t-3")
    check(doc, load_schema("trace.schema.json"), label="audit trace")
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instants and all(e["cat"] == "audit" for e in instants)
    with pytest.raises(ValueError):
        audit.audit_trace_document([])


def test_audit_document_conforms_to_checked_in_schema():
    blocks = [record_run("full", n=60, seed=4),
              dict(record_run("full", n=60, seed=5), kind="etrace", scheme="")]
    doc = audit.audit_document(blocks, policy="full", trace_id="t-4")
    check(doc, load_schema("audit.schema.json"), label="audit.json")
    assert doc["runs"][0]["decisions"]["detect"] == blocks[0]["events_seen"]


def test_timeline_and_rollup():
    block = record_run("full", n=960, seed=6)
    line = audit.decision_timeline(block)
    assert len(line) == audit.TIMELINE_BUCKETS
    assert "D" in line
    decision = block["columns"]["decision"]
    assert int((decision == audit.DEC_DETECT).sum()) == block["events_seen"]
    assert int(block["columns"]["penalty"].sum()) == 11 * block["events_seen"]
    assert line.count("D") <= block["events_seen"]


# ----------------------------------------------------------------------
# cycle-level blame: the forced-choke acceptance fixture
# ----------------------------------------------------------------------

def test_audit_why_fixture_names_planted_gate(capsys):
    from repro.experiments.audit_cli import audit_main

    assert audit_main(["why", "--fixture"]) == 0
    out = capsys.readouterr().out
    # the blame line names the planted choke gate with its CDL class...
    assert "blame: CDL_" in out
    assert "n8[BUF]" in out
    # ...and the decision chain shows the rollback each scheme recorded
    assert "detect" in out
    assert "Razor" in out
    assert not audit.enabled()  # the fixture run restores the sink state


# ----------------------------------------------------------------------
# disabled-path overhead: the reason schemes can stay instrumented
# ----------------------------------------------------------------------

def test_disabled_audit_is_near_free():
    assert not audit.enabled()
    iterations = 50_000
    start = time.perf_counter()
    for _ in range(iterations):
        if audit.get() is not None:  # the per-run hoisted guard
            raise AssertionError("sink must be off")
    t_checks = time.perf_counter() - start
    # absolute budget, mirroring test_obs: 2µs per check is an order of
    # magnitude above what a module-global read costs
    assert t_checks < iterations * 2e-6, f"{t_checks:.3f}s for {iterations} checks"

    # comparative budget: a loop scheme pays one hoisted get() per
    # simulate() plus a local None check per decision event (vectorised
    # schemes skip even that), so event-count guard checks must cost
    # well under 2% of the cycle loop they ride in.
    from repro.core.dcs import DcsScheme

    n = 50_000
    rng = np.random.default_rng(0)
    err = np.where(rng.random(n) < 0.05, 2, 0).astype(np.int8)
    trace = synthetic_error_trace(err, benchmark="overhead")
    scheme = DcsScheme("icslt", capacity=64, associativity=4)
    t_sim = min(_timed(lambda: scheme.simulate(trace)) for _ in range(3))
    events = int((err != 0).sum())
    t_guard = min(_timed(lambda: _guard_loop(events)) for _ in range(3))
    assert t_guard < 0.02 * t_sim + 1e-4, (
        f"audit-off guards cost {t_guard:.5f}s vs {t_sim:.5f}s sim"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _guard_loop(n: int) -> None:
    rec = None if audit.get() is None else object()
    for _ in range(n):
        if rec is not None:
            raise AssertionError


# ----------------------------------------------------------------------
# end-to-end: streams are schedule-independent, reports untouched
# ----------------------------------------------------------------------

def run_cli(tmp_path, name, jobs, audit_out=None, policy=None):
    from repro.experiments.__main__ import main

    report = tmp_path / f"report-{name}.txt"
    argv = [
        "fig3_10", "--fast", "--cycles", "200",
        "--jobs", str(jobs), "--checkpoint-dir", str(tmp_path / f"ckpt-{name}"),
        "--out", str(report),
    ]
    if audit_out is not None:
        argv.extend(["--audit-out", str(audit_out)])
    if policy is not None:
        argv.extend(["--audit-policy", policy])
    assert main(argv) == 0
    return report.read_bytes()


def test_audited_report_is_byte_identical_serial(tmp_path, capsys):
    plain = run_cli(tmp_path, "plain", 1)
    stream = tmp_path / "audit-serial.npz"
    audited = run_cli(tmp_path, "audited", 1, audit_out=stream)
    assert audited == plain
    document = audit.load_audit(str(stream))
    assert document["runs"]
    assert any(run["kind"] == "scheme" for run in document["runs"])
    assert not audit.enabled()  # sink off again after main() returns
    assert "audit stream written" in capsys.readouterr().out


@pytest_fork
def test_sampled_streams_identical_jobs1_vs_jobs2(tmp_path):
    stream1 = tmp_path / "audit-j1.npz"
    stream2 = tmp_path / "audit-j2.npz"
    report1 = run_cli(tmp_path, "j1", 1, audit_out=stream1,
                      policy="reservoir:64:7")
    report2 = run_cli(tmp_path, "j2", 2, audit_out=stream2,
                      policy="reservoir:64:7")
    assert report1 == report2  # reports untouched by audit or schedule
    doc1 = audit.load_audit(str(stream1))
    doc2 = audit.load_audit(str(stream2))
    keys1 = [audit._run_key(run) for run in doc1["runs"]]
    keys2 = [audit._run_key(run) for run in doc2["runs"]]
    assert keys1 == keys2  # same runs, same digests, same order
    for run1, run2 in zip(doc1["runs"], doc2["runs"]):
        for name, _dtype in audit.COLUMNS:
            np.testing.assert_array_equal(run1["columns"][name],
                                          run2["columns"][name])
