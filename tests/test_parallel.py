"""Tests for the parallel runtime: determinism, shared-store safety,
crash containment, and worker-side watchdog semantics.

Mirrors the chaos-driven style of test_runtime.py: every guarantee the
fan-out layer claims is proven by injecting the corresponding fault —
a murdered worker, two processes racing on one store, a queue so long
that a submission-measured timeout would misfire.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from repro.experiments import FAST_CONFIG
from repro.experiments.runner import prefetch_plan
from repro.runtime import (
    CheckpointStore,
    WorkerSpec,
    prefetch_artefacts,
    run_many_parallel,
)

TINY = replace(FAST_CONFIG, cycles=200)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel tests rely on cheap fork workers",
)


def tiny_spec(tmp_path=None, **overrides) -> WorkerSpec:
    checkpoint_dir = str(tmp_path / "ckpt") if tmp_path is not None else None
    defaults = dict(config=TINY, checkpoint_dir=checkpoint_dir)
    defaults.update(overrides)
    return WorkerSpec(**defaults)


# ----------------------------------------------------------------------
# (a) determinism: serial and parallel runs produce identical reports
# ----------------------------------------------------------------------

def run_cli(argv, tmp_path, name):
    from repro.experiments.__main__ import main

    out = tmp_path / f"{name}.json"
    code = main([*argv, "--out", str(out), "--format", "json"])
    return code, out.read_text()


def test_serial_and_parallel_reports_are_identical(tmp_path, capsys):
    argv = ["fig3_4", "tab3_ovh", "tab4_ovh", "--fast", "--cycles", "200"]
    code_s, serial = run_cli([*argv, "--jobs", "1"], tmp_path, "serial")
    code_p, parallel = run_cli([*argv, "--jobs", "2"], tmp_path, "parallel")
    assert code_s == 0 and code_p == 0
    # bit-identical: the report JSON carries no wall-clock fields
    assert serial == parallel
    # incremental output is flushed in submission order in both modes
    out = capsys.readouterr().out
    assert out.index("fig3_4:") < out.index("tab3_ovh:") < out.index("tab4_ovh:")


def test_fleet_generates_each_trace_once_and_shares_only_populations(tmp_path):
    argv = ["fig3_8", "fig4_8", "--fast", "--cycles", "300"]
    metrics = tmp_path / "metrics.json"
    code_s, serial = run_cli([*argv, "--jobs", "1"], tmp_path, "serial")
    code_p, parallel = run_cli(
        [*argv, "--jobs", "2", "--metrics-out", str(metrics)], tmp_path, "parallel"
    )
    assert code_s == 0 and code_p == 0
    assert serial == parallel
    counters = json.loads(metrics.read_text())["counters"]
    # the coordinator generates no trace: each prefetch unit generates
    # its benchmark's trace once, for both reference chips
    assert counters["runner.trace_generated"] == len(FAST_CONFIG.benchmarks)
    # one chip population of five arrays, and no input stream
    assert counters["shm.arrays_published"] == 5
    assert not [name for name in counters if name.startswith("runner.inputs_")]


def test_parallel_run_shares_user_checkpoint_store(tmp_path, capsys):
    from repro.experiments.__main__ import main

    ckpt = str(tmp_path / "ckpt")
    argv = ["fig3_4", "--fast", "--cycles", "200", "--checkpoint-dir", ckpt]
    assert main([*argv, "--jobs", "2"]) == 0
    first = capsys.readouterr().out
    assert "stored" in first
    # the second parallel run must resume from the store: its workers
    # report hits and nothing new is stored
    assert main([*argv, "--jobs", "2"]) == 0
    second = capsys.readouterr().out
    assert ", 0 stored" in second and "0 hits" not in second


# ----------------------------------------------------------------------
# (b) two processes sharing one store never corrupt an entry
# ----------------------------------------------------------------------

def _hammer_store(root, keys, results):
    store = CheckpointStore(root, claims=True, claim_stale_s=30.0)
    values = {}
    for key in keys:
        values[key] = store.fetch(key, lambda k=key: {"key": k, "blob": list(range(2000))})
    results.put((store.stats.as_dict(), {k: v["key"] for k, v in values.items()}))


def test_concurrent_processes_never_corrupt_shared_store(tmp_path):
    keys = [f"artefact-{i}" for i in range(8)]
    mp = multiprocessing.get_context("fork")
    results = mp.Queue()
    workers = [
        mp.Process(target=_hammer_store, args=(tmp_path, keys, results))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    collected = [results.get(timeout=60) for _ in workers]
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    # both processes saw every value, uncorrupted
    for stats, values in collected:
        assert stats["corrupt"] == 0
        assert values == {k: k for k in keys}
    # the store on disk is fully intact and claim files were cleaned up
    verify = CheckpointStore(tmp_path)
    for key in keys:
        assert verify.load(key)["key"] == key
    assert verify.stats.corrupt == 0
    assert not list(tmp_path.glob("*.claim"))


def test_claim_is_exclusive_and_stale_claims_break(tmp_path):
    store = CheckpointStore(tmp_path, claims=True, claim_stale_s=0.2)
    assert store.try_claim("k")
    other = CheckpointStore(tmp_path, claims=True, claim_stale_s=0.2)
    assert not other.try_claim("k")  # held, and fresh
    time.sleep(0.3)
    assert not other.try_claim("k")  # this attempt breaks the stale claim
    assert other.stats.claims_broken == 1
    assert other.try_claim("k")  # ...so the next one wins


def test_claim_of_dead_process_breaks_immediately(tmp_path):
    # A SIGKILL'd worker leaves its claim file behind; waiting out
    # claim_stale_s (10 min default) would wedge the retry.  The claim
    # records the owner pid, so a liveness probe must break it at once.
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    dead_pid = int(child.stdout)
    store = CheckpointStore(tmp_path, claims=True, claim_stale_s=600.0)
    store.claim_path("k").write_text(f"{dead_pid}\n")
    assert not store.try_claim("k")  # this attempt breaks the orphan
    assert store.stats.claims_broken == 1
    assert store.try_claim("k")  # ...and the next one wins immediately

    # a claim held by a live process is NOT broken by the probe
    store.release("k")
    store.claim_path("k").write_text(f"{os.getpid()}\n")
    other = CheckpointStore(tmp_path, claims=True, claim_stale_s=600.0)
    assert not other.try_claim("k")
    assert other.stats.claims_broken == 0

    # garbage in the claim file falls back to the age rule
    store.claim_path("k").write_text("not-a-pid\n")
    assert not other.try_claim("k")
    assert other.stats.claims_broken == 0


def test_waiter_adopts_entry_computed_by_claim_holder(tmp_path):
    store = CheckpointStore(tmp_path, claims=True, claim_poll_s=0.01)
    holder = CheckpointStore(tmp_path, claims=True)
    assert holder.try_claim("k")

    computed = []

    def compute():
        computed.append(1)
        return "duplicate"

    import threading

    results: list = []
    waiter = threading.Thread(target=lambda: results.append(store.fetch("k", compute)))
    waiter.start()
    time.sleep(0.1)  # waiter is now polling behind the claim
    holder.save("k", "from-holder")
    holder.release("k")
    waiter.join(timeout=10)
    assert results == ["from-holder"]
    assert not computed  # the waiter never duplicated the work


# ----------------------------------------------------------------------
# (c) a chaos-killed worker yields a FailureRecord and exit code 1
# ----------------------------------------------------------------------

def test_killed_worker_becomes_crash_record_not_dead_run(tmp_path):
    spec = tiny_spec(tmp_path, chaos_kill=("tab4_ovh",))
    report, _ = run_many_parallel(
        ["tab3_ovh", "tab4_ovh", "fig3_4"], spec, jobs=2
    )
    assert [o.experiment_id for o in report.outcomes] == [
        "tab3_ovh", "tab4_ovh", "fig3_4",
    ]
    assert [o.ok for o in report.outcomes] == [True, False, True]
    failure = report.outcomes[1].failure
    assert failure.kind == "crash"
    assert failure.error_type == "WorkerCrash"
    assert report.exit_code() == 1
    assert "CRASH" in report.summary_text()


def test_cli_chaos_kill_exits_nonzero_and_isolates(tmp_path, capsys):
    from repro.experiments.__main__ import main

    code = main(["tab3_ovh", "tab4_ovh", "--fast", "--cycles", "200",
                 "--jobs", "2", "--chaos-kill", "tab4_ovh"])
    assert code == 1
    out = capsys.readouterr().out
    assert "1/2 experiments ok" in out
    assert "CRASH" in out and "WorkerCrash" in out


def test_cli_chaos_kill_requires_parallel_jobs(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["tab3_ovh", "--fast", "--jobs", "1", "--chaos-kill", "tab3_ovh"])
    assert excinfo.value.code == 2
    assert "--jobs >= 2" in capsys.readouterr().err


def test_chaos_fail_propagates_into_workers(tmp_path):
    spec = tiny_spec(tmp_path, chaos_fail=("tab3_ovh",))
    report, _ = run_many_parallel(["tab3_ovh", "tab4_ovh"], spec, jobs=2)
    assert [o.ok for o in report.outcomes] == [False, True]
    failure = report.outcomes[0].failure
    assert failure.error_type == "InjectedFailure"
    assert "chaos-injected" in failure.message


# ----------------------------------------------------------------------
# watchdog semantics: the clock starts at worker start, not submission
# ----------------------------------------------------------------------

def test_timeout_measured_from_worker_start_not_submission(tmp_path):
    # Three 0.6s experiments queued on ONE worker: the last starts
    # ~1.2s after submission.  A submission-measured 1.0s watchdog
    # would kill it; the worker-start watchdog must not.
    slow = tuple((eid, 0.6) for eid in ("tab3_ovh", "tab4_ovh", "fig3_4"))
    spec = tiny_spec(tmp_path, chaos_slow=slow, timeout_s=1.0)
    report, _ = run_many_parallel(
        ["tab3_ovh", "tab4_ovh", "fig3_4"], spec, jobs=1
    )
    assert report.ok, report.summary_text()


def test_timeout_still_fires_inside_workers(tmp_path):
    spec = tiny_spec(tmp_path, chaos_slow=(("tab3_ovh", 30.0),), timeout_s=0.3)
    report, _ = run_many_parallel(["tab3_ovh", "tab4_ovh"], spec, jobs=2)
    assert [o.ok for o in report.outcomes] == [False, True]
    assert report.outcomes[0].failure.kind == "timeout"


# ----------------------------------------------------------------------
# prefetch plan + artefact fan-out
# ----------------------------------------------------------------------

def test_prefetch_plan_covers_selected_experiments():
    chips, traces = prefetch_plan(TINY, ["fig3_4"])
    assert chips == (("stage", TINY.ch3_chip_seed, "NTC", True),)
    assert traces == (("vortex", TINY.ch3_chip_seed, "NTC", True),)

    chips, traces = prefetch_plan(TINY, ["fig3_8", "fig4_8"])
    assert ("stage", TINY.ch3_chip_seed, "NTC", True) in chips
    assert ("stage", TINY.ch4_chip_seed, "NTC", True) in chips
    assert len(traces) == 2 * len(TINY.benchmarks)
    # every trace's chip is staged by the chip phase
    chip_keys = {(seed, corner, buffered) for _, seed, corner, buffered in chips}
    for _, chip_seed, corner, buffered in traces:
        assert (chip_seed, corner, buffered) in chip_keys

    chips, traces = prefetch_plan(TINY, ["fig3_2"])
    assert not traces
    assert len(chips) == 2 * TINY.characterization_chips  # STC and NTC
    assert all(kind == "alu" for kind, *_ in chips)

    assert prefetch_plan(TINY, ["tab3_ovh"]) == ((), ())


def test_prefetch_fills_store_and_experiments_hit_it(tmp_path):
    spec = tiny_spec(tmp_path)
    stats = prefetch_artefacts(spec, ["fig3_4"], jobs=2)
    assert stats.stores >= 2  # the chip and its vortex error trace
    store = CheckpointStore(tmp_path / "ckpt")
    assert len(store) >= 2

    report, run_stats = run_many_parallel(["fig3_4"], spec, jobs=2)
    assert report.ok
    assert run_stats.hits >= 1  # the experiment resumed from the prefetch
    assert run_stats.stores == 0  # nothing was recomputed


def test_default_jobs_counts_usable_cpus(monkeypatch):
    from repro.runtime import parallel

    # a run pinned to 3 CPUs of a 64-CPU host gets 3 workers, not 64
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert parallel.default_jobs() == 3
    # platforms without affinity fall back to the CPU count
    monkeypatch.delattr(parallel.os, "sched_getaffinity")
    assert parallel.default_jobs() == 64
