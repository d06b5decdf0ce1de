"""Tests for the executor backends: cross-host claims, the ``--jobs``
backend choice, and the bit-identical-report contract between inproc
and procpool.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import socket
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.experiments import FAST_CONFIG
from repro.runtime import CheckpointStore, WorkerSpec
from repro.runtime.backends import InprocBackend, ProcpoolBackend, backend_for

TINY = replace(FAST_CONFIG, cycles=200)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="backend tests rely on cheap fork workers",
)


def tiny_spec(tmp_path=None, **overrides) -> WorkerSpec:
    checkpoint_dir = str(tmp_path / "ckpt") if tmp_path is not None else None
    defaults = dict(config=TINY, checkpoint_dir=checkpoint_dir)
    defaults.update(overrides)
    return WorkerSpec(**defaults)


def report_digest(report) -> str:
    """Wall-clock-free JSON digest of a report, for cross-backend cmp."""
    rows = []
    for outcome in report.outcomes:
        row = {"id": outcome.experiment_id, "ok": outcome.ok}
        if outcome.result is not None:
            row["result"] = outcome.result.to_dict()
        if outcome.failure is not None:
            row["failure"] = {
                "kind": outcome.failure.kind,
                "error_type": outcome.failure.error_type,
            }
        rows.append(row)
    return json.dumps(rows, sort_keys=True)


# ----------------------------------------------------------------------
# backend choice and cross-backend bit-identity
# ----------------------------------------------------------------------

def test_backend_follows_jobs():
    assert isinstance(backend_for(1), InprocBackend)
    for jobs in (2, 4):
        assert isinstance(backend_for(jobs), ProcpoolBackend)


def test_inproc_and_procpool_reports_identical(tmp_path):
    ids = ["fig3_4", "tab3_ovh", "tab4_ovh"]
    ref, _ = InprocBackend().run(ids, tiny_spec(tmp_path / "a"))
    got, _ = ProcpoolBackend().run(ids, tiny_spec(tmp_path / "b"), jobs=2)
    assert report_digest(ref) == report_digest(got)


# ----------------------------------------------------------------------
# cross-host claims: a store can be shared or restored across hosts
# ----------------------------------------------------------------------

def test_claim_records_pid_and_hostname(tmp_path):
    store = CheckpointStore(tmp_path, claims=True)
    assert store.try_claim("artefact")
    pid, host = store.claim_path("artefact").read_text().split()
    assert int(pid) == os.getpid() and host == socket.gethostname()


def test_foreign_host_claim_falls_back_to_age_rule(tmp_path):
    # a dead-looking pid from another machine says nothing about our
    # pid space: the claim must NOT be broken by the liveness probe
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    )
    dead_pid = int(child.stdout)
    store = CheckpointStore(tmp_path, claims=True, claim_stale_s=60.0)
    store.claim_path("artefact").write_text(f"{dead_pid} elsewhere.example\n")
    assert not store.try_claim("artefact")  # age rule still protects it
    # the same dead pid from THIS host is provably orphaned: broken and
    # (on the next attempt) re-claimable
    store.claim_path("artefact").write_text(
        f"{dead_pid} {socket.gethostname()}\n"
    )
    assert not store.try_claim("artefact")  # this call breaks it...
    assert store.try_claim("artefact")  # ...freeing this one to win


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------

def test_cli_explicit_backend_selection(tmp_path, capsys):
    from repro.experiments.__main__ import main

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    argv = ["fig3_4", "--fast", "--cycles", "200", "--format", "json"]
    assert main([*argv, "--jobs", "1", "--out", str(out_a)]) == 0
    assert main([*argv, "--jobs", "2", "--out", str(out_b)]) == 0
    assert out_a.read_text() == out_b.read_text()
