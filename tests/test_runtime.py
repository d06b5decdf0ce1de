"""Tests for the resilient runtime: checkpoint store, executor, CLI.

The chaos module is the test fixture here: every resilience claim the
runtime makes (corrupt entries fall back to recomputation, writes are
atomic under mid-flight crashes, one crashing experiment never takes
down the batch, timeouts cannot hang a run) is proven by injecting the
corresponding fault on purpose.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import FAST_CONFIG, ExperimentContext
from repro.experiments.report import ExperimentResult
from repro.runtime import (
    CheckpointStore,
    ExperimentTimeout,
    RunReport,
    artefact_key,
    config_fingerprint,
    run_many,
    run_supervised,
)
from repro.runtime import chaos
from repro.runtime.checkpoint import FORMAT_VERSION

TINY = replace(FAST_CONFIG, cycles=200)


def ok_run(experiment_id="exp_ok"):
    def run(ctx):
        return ExperimentResult(experiment_id, "a result")

    return run


# ----------------------------------------------------------------------
# checkpoint store
# ----------------------------------------------------------------------

def test_store_roundtrip(tmp_path):
    store = CheckpointStore(tmp_path / "ck")
    payload = {"a": np.arange(5), "b": "text"}
    assert store.save("chip-abc", payload)
    loaded = store.load("chip-abc")
    np.testing.assert_array_equal(loaded["a"], payload["a"])
    assert loaded["b"] == "text"
    assert store.stats.stores == 1 and store.stats.hits == 1
    assert "chip-abc" in store and len(store) == 1


def test_store_miss_counts(tmp_path):
    store = CheckpointStore(tmp_path)
    assert store.load("nope") is None
    assert store.stats.misses == 1 and store.stats.hits == 0


@pytest.mark.parametrize("mode", ["flip", "truncate", "garbage"])
def test_corrupt_entry_falls_back_to_recompute(tmp_path, mode):
    store = CheckpointStore(tmp_path)
    store.save("k", list(range(100)))
    chaos.corrupt_entry(store, "k", mode=mode)
    assert store.load("k") is None  # never raises
    assert store.stats.corrupt == 1
    # fetch transparently recomputes and heals the entry
    assert store.fetch("k", lambda: "recomputed") == "recomputed"
    assert store.load("k") == "recomputed"


def test_version_mismatch_is_a_miss_not_an_error(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("k", 42)
    blob = store.path("k").read_bytes()
    header, _, payload = blob.partition(b"\n")
    magic, _, checksum = header.split(b" ")
    future = b"%s v%d %s" % (magic, FORMAT_VERSION + 1, checksum)
    store.path("k").write_bytes(future + b"\n" + payload)
    assert store.load("k") is None
    assert store.stats.corrupt == 0  # clean miss, not corruption


def test_no_resume_forces_recompute_but_still_saves(tmp_path):
    CheckpointStore(tmp_path).save("k", "old")
    store = CheckpointStore(tmp_path, resume=False)
    calls = []
    assert store.fetch("k", lambda: calls.append(1) or "new") == "new"
    assert calls and store.stats.hits == 0
    # the store was refreshed; a resuming store sees the new value
    assert CheckpointStore(tmp_path).load("k") == "new"


def test_aborted_write_leaves_no_torn_entry(tmp_path):
    store = CheckpointStore(tmp_path)
    store.save("stable", "v1")
    chaos.abort_writes(store, fraction=0.5)
    assert not store.save("stable", "v2")  # reported, not raised
    assert store.stats.write_errors == 1
    # atomicity: the previous entry is still intact, never torn
    fresh = CheckpointStore(tmp_path)
    assert fresh.load("stable") == "v1"


def test_fingerprints_track_config_and_parts():
    a = config_fingerprint(TINY)
    assert a == config_fingerprint(replace(TINY))
    assert a != config_fingerprint(replace(TINY, cycles=300))
    key = artefact_key("chip", TINY, 8, "NTC")
    assert key.startswith("chip-")
    assert key != artefact_key("chip", TINY, 9, "NTC")
    assert key != artefact_key("etrace", TINY, 8, "NTC")


# ----------------------------------------------------------------------
# supervised executor
# ----------------------------------------------------------------------

def test_failure_is_contained_and_structured():
    ctx = ExperimentContext(TINY)
    outcome = run_supervised("boom", chaos.failing_run("kaboom"), ctx)
    assert not outcome.ok and outcome.result is None
    failure = outcome.failure
    assert failure.experiment_id == "boom"
    assert failure.kind == "exception"
    assert failure.error_type == "InjectedFailure"
    assert "kaboom" in failure.message
    assert "InjectedFailure" in failure.traceback
    assert failure.config_fingerprint == config_fingerprint(TINY)
    assert failure.elapsed_s >= 0


def test_timeout_yields_failure_not_hang():
    ctx = ExperimentContext(TINY)
    outcome = run_supervised(
        "sleepy", chaos.hanging_run(60.0), ctx, timeout_s=0.2
    )
    assert not outcome.ok
    assert outcome.failure.kind == "timeout"
    assert outcome.failure.error_type == ExperimentTimeout.__name__
    assert outcome.elapsed_s < 10  # returned promptly, did not wait out the sleep


def test_retries_recover_from_transient_failures():
    ctx = ExperimentContext(TINY)
    outcome = run_supervised(
        "flaky", chaos.flaky_run(ok_run("flaky"), failures=2), ctx, retries=2
    )
    assert outcome.ok and outcome.attempts == 3
    # not enough retries -> the last failure is reported with its attempts
    outcome = run_supervised(
        "flaky", chaos.flaky_run(ok_run("flaky"), failures=2), ctx, retries=1
    )
    assert not outcome.ok and outcome.failure.attempts == 2


def test_keyboard_interrupt_is_not_contained():
    def interrupted(ctx):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_supervised("ctrl_c", interrupted, ExperimentContext(TINY))


def test_run_many_completes_despite_failures():
    ctx = ExperimentContext(TINY)
    bodies = {
        "first": ok_run("first"),
        "boom": chaos.failing_run(),
        "last": ok_run("last"),
    }
    seen = []
    report = run_many(
        list(bodies), ctx, resolve=bodies.__getitem__,
        on_outcome=lambda outcome: seen.append(outcome.experiment_id),
    )
    assert seen == ["first", "boom", "last"]
    assert [o.ok for o in report.outcomes] == [True, False, True]
    assert len(report.results) == 2 and len(report.failures) == 1
    assert report.exit_code() == 1
    summary = report.summary_text()
    assert "2/3 experiments ok" in summary
    assert "FAIL" in summary and "InjectedFailure" in summary


def test_run_report_all_ok():
    report = RunReport()
    ctx = ExperimentContext(TINY)
    report.outcomes.append(run_supervised("a", ok_run("a"), ctx))
    assert report.ok and report.exit_code() == 0


# ----------------------------------------------------------------------
# context + store integration (resume without recomputation)
# ----------------------------------------------------------------------

def test_resume_skips_error_trace_recomputation(tmp_path, monkeypatch):
    store = CheckpointStore(tmp_path / "ck")
    first = ExperimentContext(TINY, store=store)
    trace = first.error_trace("vortex", TINY.ch3_chip_seed)
    assert store.stats.stores >= 1

    # a fresh context on a fresh store handle must load, never recompute:
    # make any recomputation attempt explode.
    monkeypatch.setattr(
        "repro.experiments.runner.build_error_trace",
        lambda *a, **k: pytest.fail("build_error_trace recomputed despite store"),
    )
    resumed_store = CheckpointStore(tmp_path / "ck")
    second = ExperimentContext(TINY, store=resumed_store)
    resumed = second.error_trace("vortex", TINY.ch3_chip_seed)
    assert resumed_store.stats.hits >= 1
    np.testing.assert_array_equal(resumed.err_class, trace.err_class)
    np.testing.assert_array_equal(resumed.t_late, trace.t_late)


def test_corrupt_chip_checkpoint_recomputes_identical_chip(tmp_path):
    store = CheckpointStore(tmp_path)
    ctx = ExperimentContext(TINY, store=store)
    chip = ctx.chip(TINY.ch3_chip_seed)
    (key,) = [p.stem for p in store.root.glob("chip-*.ckpt")]
    chaos.corrupt_entry(store, key, mode="truncate")

    recovered_store = CheckpointStore(tmp_path)
    recovered = ExperimentContext(TINY, store=recovered_store).chip(TINY.ch3_chip_seed)
    assert recovered_store.stats.corrupt == 1
    np.testing.assert_allclose(recovered.delays, chip.delays)


# ----------------------------------------------------------------------
# CLI end to end
# ----------------------------------------------------------------------

def test_cli_chaos_fail_isolates_and_exits_nonzero(capsys):
    from repro.experiments.__main__ import main

    code = main(["fig3_4", "tab3_ovh", "--fast", "--cycles", "200",
                 "--chaos-fail", "fig3_4"])
    assert code == 1
    out = capsys.readouterr().out
    # the sibling still ran and the summary names both outcomes
    assert "tab3_ovh" in out and "1/2 experiments ok" in out
    assert "FAIL" in out and "chaos-injected" in out


def test_cli_checkpoint_resume_skips_recompute(tmp_path, monkeypatch, capsys):
    from repro.experiments.__main__ import main

    # --jobs 1: this probes the serial in-process resume path (the
    # parallel equivalent lives in test_parallel.py)
    ckpt = str(tmp_path / "ckpt")
    assert main(["fig3_4", "--fast", "--cycles", "200", "--jobs", "1",
                 "--checkpoint-dir", ckpt]) == 0
    capsys.readouterr()

    monkeypatch.setattr(
        "repro.experiments.runner.build_error_trace",
        lambda *a, **k: pytest.fail("resumed run recomputed the error trace"),
    )
    assert main(["fig3_4", "--fast", "--cycles", "200", "--jobs", "1",
                 "--checkpoint-dir", ckpt]) == 0
    out = capsys.readouterr().out
    assert "1 hits" in out


def test_cli_no_resume_recomputes(tmp_path, capsys):
    from repro.experiments.__main__ import main

    ckpt = str(tmp_path / "ckpt")
    assert main(["fig3_4", "--fast", "--cycles", "200", "--jobs", "1",
                 "--checkpoint-dir", ckpt]) == 0
    capsys.readouterr()
    assert main(["fig3_4", "--fast", "--cycles", "200", "--jobs", "1",
                 "--checkpoint-dir", ckpt, "--no-resume"]) == 0
    assert "0 hits" in capsys.readouterr().out


def test_cli_explicit_zero_overrides_are_validated(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["tab3_ovh", "--fast", "--cycles", "0"])
    assert excinfo.value.code == 2
    assert "cycles must be at least 100" in capsys.readouterr().err


def test_cli_explicit_bad_width_is_validated(capsys):
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["tab3_ovh", "--fast", "--width", "0"])
    assert excinfo.value.code == 2
    assert "power of two" in capsys.readouterr().err


def test_cli_unwritable_out_reports_instead_of_crashing(tmp_path, capsys):
    from repro.experiments.__main__ import main

    code = main(["tab3_ovh", "--fast",
                 "--out", str(tmp_path / "missing-dir" / "r.txt")])
    assert code == 1
    out = capsys.readouterr().out
    # the run itself succeeded and still reported; only the write failed
    assert "report NOT written" in out and "1/1 experiments ok" in out


def test_cli_rejects_unknown_chaos_target():
    from repro.experiments.__main__ import main

    with pytest.raises(SystemExit):
        main(["tab3_ovh", "--fast", "--chaos-fail", "fig9_99"])


def test_cli_out_written_atomically(tmp_path, monkeypatch):
    from repro.experiments.reportio import atomic_write_text

    target = tmp_path / "report.txt"
    atomic_write_text(str(target), "complete report\n")
    assert target.read_text() == "complete report\n"
    assert list(tmp_path.iterdir()) == [target]  # no temp litter

    # a crash mid-publish must leave the previous report untouched
    def exploding_replace(src, dst):
        raise OSError("chaos: replace failed")

    monkeypatch.setattr("os.replace", exploding_replace)
    with pytest.raises(OSError):
        atomic_write_text(str(target), "truncated repo")
    assert target.read_text() == "complete report\n"
    assert list(tmp_path.iterdir()) == [target]


def test_cli_out_includes_failure_summary(tmp_path, capsys):
    from repro.experiments.__main__ import main

    out_file = tmp_path / "report.txt"
    code = main(["tab3_ovh", "tab4_ovh", "--fast", "--chaos-fail", "tab4_ovh",
                 "--out", str(out_file)])
    assert code == 1
    text = out_file.read_text()
    assert "tab3_ovh" in text and "run summary" in text


# ----------------------------------------------------------------------
# logging lifecycle: configure replaces handlers, reset restores defaults
# ----------------------------------------------------------------------

def test_configure_logging_replaces_and_closes_previous_handler():
    import io
    import logging

    from repro.runtime.log import ROOT_LOGGER, configure, reset

    try:
        first_stream, second_stream = io.StringIO(), io.StringIO()
        configure(verbosity=1, stream=first_stream)
        logger = logging.getLogger(ROOT_LOGGER)
        first_handler = logger.handlers[-1]

        configure(verbosity=1, stream=second_stream)
        # repeat configuration must not stack handlers...
        assert first_handler not in logger.handlers
        assert sum(h.stream is second_stream
                   for h in logger.handlers
                   if isinstance(h, logging.StreamHandler)) == 1
        # ...and the replaced handler is closed, so a stale capture
        # buffer can never be written to again
        logger.info("goes to the second stream only")
        assert first_stream.getvalue() == ""
        assert "second stream" in second_stream.getvalue()
    finally:
        reset()


def test_reset_logging_restores_import_time_state():
    import io
    import logging

    from repro.runtime import reset_logging
    from repro.runtime.log import ROOT_LOGGER, configure

    stream = io.StringIO()
    handler = configure(verbosity=2, stream=stream)
    logger = logging.getLogger(ROOT_LOGGER)
    assert not logger.propagate and logger.level == logging.DEBUG

    reset_logging()
    assert logger.propagate
    assert logger.level == logging.NOTSET
    assert all(h.stream is not stream for h in logger.handlers
               if isinstance(h, logging.StreamHandler))
    del handler
    reset_logging()  # idempotent: a second reset is a no-op
