"""Tests for the simulation service: lifecycle, dedup, SSE, shutdown.

Covers the service-layer guarantees end to end over real HTTP (the
:class:`~repro.service.server.ServiceThread` harness boots the asyncio
server on an ephemeral port; every request goes through
:class:`~repro.service.client.ServiceClient`, no shortcuts through the
job table):

* submit -> queued -> running -> done lifecycle, and the core
  invariant — the fetched report is **byte-identical** to the CLI's
  ``--out`` for the same request;
* request-digest dedup (hit serves recorded bytes without recompute,
  format/id changes miss) and single-flight coalescing of concurrent
  duplicate submissions;
* SSE progress streaming: replay ordering, live tailing, truncated-tail
  tolerance, dedup jobs replaying the original run;
* malformed requests answered with 4xx, never a hang or a 500;
* graceful shutdown mid-job (the running job drains, queued jobs are
  blamed ``kind="shutdown"``) and boot recovery (jobs left in flight by
  a dead process are blamed ``kind="lost"``) — no job is ever silently
  lost.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments.config import FAST_CONFIG
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobTable, normalize_request, request_digest
from repro.service.server import ServiceThread

#: the cheap request used throughout: fig3_4 at 200 cycles is ~0.6 s.
REQUEST = {"experiments": ["fig3_4"], "fast": True, "cycles": 200,
           "format": "json"}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    svc = ServiceThread(str(tmp_path_factory.mktemp("service-state")))
    try:
        yield svc
    finally:
        svc.stop()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(port=service.port)


def submit_and_wait(client, **overrides):
    payload = {**REQUEST, **overrides}
    doc = client.submit(
        payload["experiments"], fast=payload["fast"], fmt=payload["format"],
        cycles=payload.get("cycles"), width=payload.get("width"),
    )
    return client.wait(doc["id"], timeout_s=120), doc["disposition"]


# ----------------------------------------------------------------------
# lifecycle + byte identity
# ----------------------------------------------------------------------


def test_healthz_and_stats_shape(client):
    health = client.healthz()
    assert health["status"] == "ok" and health["uptime_s"] >= 0
    stats = client.stats()
    assert set(stats) == {"counters", "states"}
    assert "dedup_hits" in stats["counters"]


def test_submit_lifecycle_to_done(client):
    doc, disposition = submit_and_wait(client)
    assert disposition in ("queued", "dedup_hit")  # first caller queues
    assert doc["state"] == "done"
    assert doc["summary"] == {"ok": 1, "total": 1}
    assert doc["error"] is None
    assert doc["created_ts"] <= doc["finished_ts"]
    listed = {j["id"]: j["state"] for j in client.jobs()}
    assert listed[doc["id"]] == "done"


def test_report_byte_identical_to_cli(client, tmp_path):
    """THE invariant: service bytes == CLI ``--out`` bytes."""
    from repro.experiments.__main__ import main

    doc, _ = submit_and_wait(client)
    served = client.report(doc["id"])

    out = tmp_path / "cli.json"
    assert main(["fig3_4", "--fast", "--cycles", "200",
                 "--format", "json", "--out", str(out)]) == 0
    assert served == out.read_bytes()


def test_report_byte_identical_to_cli_text_format(client, tmp_path):
    from repro.experiments.__main__ import main

    doc, _ = submit_and_wait(client, format="text")
    served = client.report(doc["id"])
    out = tmp_path / "cli.txt"
    assert main(["fig3_4", "--fast", "--cycles", "200",
                 "--format", "text", "--out", str(out)]) == 0
    assert served == out.read_bytes()


# ----------------------------------------------------------------------
# dedup + single flight
# ----------------------------------------------------------------------


def test_dedup_hit_serves_recorded_bytes_without_recompute(client):
    first, _ = submit_and_wait(client)
    executed_before = client.stats()["counters"]["executed"]
    hits_before = client.stats()["counters"]["dedup_hits"]

    second = client.submit(["fig3_4"], fast=True, fmt="json", cycles=200)
    assert second["disposition"] == "dedup_hit"
    assert second["state"] == "done"  # born done: no recompute
    assert second["id"] != first["id"]
    assert second["dedup_of"] == (first["dedup_of"] or first["id"])

    counters = client.stats()["counters"]
    assert counters["executed"] == executed_before  # nothing recomputed
    assert counters["dedup_hits"] == hits_before + 1
    assert client.report(second["id"]) == client.report(first["id"])


def test_dedup_misses_on_different_format(client):
    json_doc, _ = submit_and_wait(client)
    csv_doc = client.submit(["fig3_4"], fast=True, fmt="csv", cycles=200)
    assert csv_doc["digest"] != json_doc["digest"]  # format is in the key
    done = client.wait(csv_doc["id"], timeout_s=120)
    assert done["state"] == "done"


def test_dedup_misses_on_different_experiment_list(client):
    submit_and_wait(client)
    doc = client.submit(["fig3_4", "tab3_ovh"], fast=True, fmt="json",
                        cycles=200)
    assert doc["disposition"] == "queued"
    done = client.wait(doc["id"], timeout_s=120)
    assert done["state"] == "done" and done["summary"]["total"] == 2


def test_concurrent_duplicate_submissions_coalesce(client):
    """Single flight: N racing identical submissions, ONE execution."""
    cycles = 444  # unique request: nothing in the store yet
    results = []

    def post():
        results.append(
            client.submit(["fig3_4"], fast=True, fmt="json", cycles=cycles)
        )

    threads = [threading.Thread(target=post) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    digests = {doc["digest"] for doc in results}
    assert len(digests) == 1  # same request -> same digest, all 4
    client.wait(results[0]["id"], timeout_s=120)
    # exactly one job actually executed this digest; everyone else
    # joined it in flight or reused its bytes
    executed = [
        j for j in client.jobs()
        if j["digest"] in digests and j["dedup_of"] is None
    ]
    assert len(executed) == 1
    assert sum(1 for doc in results if doc["disposition"] == "queued") == 1
    assert all(doc["disposition"] in ("queued", "joined", "dedup_hit")
               for doc in results)


def test_request_digest_covers_ids_and_format():
    config = FAST_CONFIG
    base = request_digest(config, ("fig3_4",), "json")
    assert request_digest(config, ("fig3_4",), "text") != base
    assert request_digest(config, ("fig3_4", "tab3_ovh"), "json") != base
    assert request_digest(config, ("fig3_4",), "json") == base


def test_normalize_request_is_spelling_insensitive():
    a = normalize_request({"experiments": ["fig3_4"], "cycles": 200})
    b = normalize_request({"cycles": 200, "fast": True,
                           "experiments": ["fig3_4"], "format": "json"})
    assert a == b
    config, ids, _ = normalize_request({"experiments": ["all"]})
    assert len(ids) > 10  # "all" expands to the full registry


# ----------------------------------------------------------------------
# SSE progress stream
# ----------------------------------------------------------------------


def test_sse_replay_is_ordered_and_terminates(client):
    doc, _ = submit_and_wait(client)
    frames = list(client.events(doc["id"], timeout_s=60))
    assert "__done__" in frames[-1]
    assert frames[-1]["__done__"]["state"] == "done"
    kinds = [f["kind"] for f in frames[:-1]]
    assert kinds[0] == "run_start"
    assert kinds[-1] == "run_end"
    assert "result" in kinds
    stamps = [f["ts"] for f in frames[:-1]]
    assert stamps == sorted(stamps)  # replay preserves file order


def test_sse_streams_live_during_the_run(client):
    doc = client.submit(["fig3_4"], fast=True, fmt="json", cycles=555)
    # attach immediately — the stream must tail the run as it happens
    frames = list(client.events(doc["id"], timeout_s=120))
    assert "__done__" in frames[-1]
    kinds = [f.get("kind") for f in frames[:-1]]
    assert "run_start" in kinds and "run_end" in kinds


def test_sse_tolerates_truncated_tail(service, client):
    doc, _ = submit_and_wait(client)
    source = doc["dedup_of"] or doc["id"]
    events_path = service.table.events_path(source)
    original = events_path.read_bytes()
    try:
        with open(events_path, "ab") as handle:
            handle.write(b'not json at all\n{"cut mid-app')  # crashed writer
        frames = list(client.events(doc["id"], timeout_s=60))
        assert "__done__" in frames[-1]  # still terminates cleanly
        assert all("kind" in f for f in frames[:-1])  # only parseable events
    finally:
        events_path.write_bytes(original)


def test_sse_for_dedup_job_replays_the_original_run(client):
    first, _ = submit_and_wait(client)
    second = client.submit(["fig3_4"], fast=True, fmt="json", cycles=200)
    assert second["disposition"] == "dedup_hit"
    frames = list(client.events(second["id"], timeout_s=60))
    kinds = [f.get("kind") for f in frames[:-1]]
    assert "run_start" in kinds  # the original execution's stream
    assert frames[-1]["__done__"]["id"] == second["id"]


# ----------------------------------------------------------------------
# malformed requests -> 4xx
# ----------------------------------------------------------------------


@pytest.mark.parametrize("body", [
    b"not json{",
    b'"a bare string"',
    b"{}",
    b'{"experiments": []}',
    b'{"experiments": ["no_such_experiment"]}',
    b'{"experiments": ["fig3_4"], "format": "yaml"}',
    b'{"experiments": ["fig3_4"], "cycles": "many"}',
    b'{"experiments": ["fig3_4"], "cycles": 1}',
    b'{"experiments": ["fig3_4"], "surprise": 1}',
    b'{"experiments": [42]}',
])
def test_malformed_submissions_get_400(client, body):
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", client.port, timeout=30)
    try:
        conn.request("POST", "/jobs", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        doc = json.loads(response.read().decode())
    finally:
        conn.close()
    assert response.status == 400
    assert doc["error"]


def test_unknown_job_and_path_get_404(client):
    with pytest.raises(ServiceError) as exc:
        client.job("j99999")
    assert exc.value.status == 404
    with pytest.raises(ServiceError) as exc:
        client._json("GET", "/no/such/path")
    assert exc.value.status == 404


def test_wrong_method_gets_405(client):
    with pytest.raises(ServiceError) as exc:
        client._json("POST", "/stats", {"x": 1})
    assert exc.value.status == 405


# ----------------------------------------------------------------------
# ledger / dashboard / why over HTTP
# ----------------------------------------------------------------------


def test_ledger_records_service_runs(client):
    submit_and_wait(client)
    doc = client.ledger()
    assert doc["total"] >= 1
    assert all(r["notes"].startswith("service:") for r in doc["records"])
    assert client.ledger(limit=1)["records"][-1] == doc["records"][-1]


def test_ledger_diff_over_http(client):
    submit_and_wait(client)
    submit_and_wait(client, format="csv")
    result = client.ledger_diff("0", "-1")
    assert {"run_a", "run_b", "changed", "counter_drift"} <= set(result)
    with pytest.raises(ServiceError) as exc:
        client.ledger_diff("zzz", "-1")
    assert exc.value.status == 404


def test_dashboard_served_as_html(client):
    submit_and_wait(client)
    status, payload, content_type = client._request("GET", "/dashboard")
    assert status == 200
    assert content_type.startswith("text/html")
    assert b"<html" in payload or b"<!doctype" in payload.lower()


def test_why_over_http(client):
    doc, _ = submit_and_wait(client)
    result = client.why(doc["id"], cycle=5)
    assert result["experiment"] == "fig3_4"
    assert result["lines"] and "blame" in result["lines"][0]
    with pytest.raises(ServiceError) as exc:  # cycle is mandatory
        client._json("GET", f"/jobs/{doc['id']}/why")
    assert exc.value.status == 400
    with pytest.raises(ServiceError) as exc:  # foreign experiment
        client.why(doc["id"], cycle=5, experiment="fig4_8")
    assert exc.value.status == 400


# ----------------------------------------------------------------------
# failure containment, shutdown, recovery — no job silently lost
# ----------------------------------------------------------------------


def test_broken_machinery_blames_the_job(tmp_path, monkeypatch):
    import repro.service.scheduler as scheduler_mod

    def explode(*_args, **_kwargs):
        raise RuntimeError("backend resolution broke")

    monkeypatch.setattr(scheduler_mod, "backend_for", explode)
    svc = ServiceThread(str(tmp_path))
    try:
        client = ServiceClient(port=svc.port)
        doc = client.submit(["fig3_4"], fast=True, fmt="json", cycles=200)
        done = client.wait(doc["id"], timeout_s=60)
        assert done["state"] == "failed"
        assert done["error"]["kind"] == "exception"
        assert done["error"]["error_type"] == "RuntimeError"
        assert "backend resolution broke" in done["error"]["message"]
        with pytest.raises(ServiceError) as exc:
            client.report(doc["id"])
        assert exc.value.status == 409  # failed, not merely pending
    finally:
        svc.stop()


def test_graceful_shutdown_drains_running_and_blames_queued(
    tmp_path, monkeypatch
):
    from repro.service.scheduler import JobRunner

    release = threading.Event()
    original = JobRunner._execute

    def slow_execute(self, job):
        release.wait(timeout=30)
        original(self, job)

    monkeypatch.setattr(JobRunner, "_execute", slow_execute)
    svc = ServiceThread(str(tmp_path))
    stopper = threading.Thread(target=svc.stop)
    try:
        client = ServiceClient(port=svc.port)
        running = client.submit(["fig3_4"], fast=True, fmt="json", cycles=200)
        queued = client.submit(["tab3_ovh"], fast=True, fmt="json", cycles=200)
        assert queued["disposition"] == "queued"
        # initiate the graceful shutdown while the first job is mid-run,
        # and only release the run once the stop is definitely underway —
        # so the second job is deterministically still queued at drain
        stopper.start()
        runner = svc.server.runner
        for _ in range(200):
            if runner._stopping.is_set():
                break
            time.sleep(0.05)
        assert runner._stopping.is_set()
        release.set()
    finally:
        release.set()
        stopper.join(timeout=120)
        svc.stop()  # idempotent no-op once the stopper finished

    drained = svc.table.get(running["id"])
    blamed = svc.table.get(queued["id"])
    assert drained.state == "done"  # the running job survived shutdown
    assert blamed.state == "failed"  # ... and the queued one was blamed,
    assert blamed.error["kind"] == "shutdown"  # never silently dropped
    assert blamed.error["error_type"] == "ServiceShutdown"


def test_boot_recovery_blames_jobs_lost_by_a_dead_process(tmp_path):
    table = JobTable(tmp_path)
    config, ids, fmt = normalize_request(REQUEST)
    job, disposition = table.submit(config, ids, fmt)
    assert disposition == "queued"
    table.mark_running(job.id)
    # simulate the process dying here: a fresh table folds the journal
    reborn = JobTable(tmp_path)
    recovered = reborn.get(job.id)
    assert recovered.state == "failed"
    assert recovered.error["kind"] == "lost"
    assert reborn.counters["recovered_lost"] == 1
    # the blame itself was journaled: a third boot sees a settled job
    third = JobTable(tmp_path)
    assert third.get(job.id).state == "failed"
    assert third.counters["recovered_lost"] == 0


def test_job_journal_tolerates_truncated_tail(tmp_path):
    table = JobTable(tmp_path)
    config, ids, fmt = normalize_request(REQUEST)
    job, _ = table.submit(config, ids, fmt)
    table.mark_running(job.id)
    table.mark_done(job.id, {"ok": 1, "total": 1})
    with open(table.path, "ab") as handle:
        handle.write(b'{"kind": "state", "cut mid')  # crashed appender
    reborn = JobTable(tmp_path)
    assert reborn.get(job.id).state == "done"  # history intact
    # and the next append repairs the fragment instead of extending it
    second, _ = reborn.submit(config, ids, "csv")
    assert JobTable(tmp_path).get(second.id) is not None
