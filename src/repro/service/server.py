"""The asyncio HTTP/JSON front-end of the service.

Hand-rolled HTTP/1.1 on :func:`asyncio.start_server` — the stdlib's
``http.server`` is synchronous and the SSE progress stream needs a real
event loop, so the service speaks just enough HTTP itself (one request
per connection, ``Connection: close``) rather than growing a framework
dependency.

Routes::

    POST /jobs                submit a request (JSON body, CLI vocabulary)
    GET  /jobs                list all jobs, submission order
    GET  /jobs/<id>           one job document
    GET  /jobs/<id>/report    the rendered report bytes (byte-identical
                              to the CLI's --out for the same request)
    GET  /jobs/<id>/events    live SSE progress: tails the job's
                              structured event stream until terminal
    GET  /jobs/<id>/why       gate-level choke blame for one cycle of a
                              job's configuration (audit `why` over HTTP)
    GET  /ledger              run-ledger records (?limit=N)
    GET  /ledger/diff?a=&b=   structural diff of two ledger runs
    GET  /dashboard           the self-contained HTML dashboard
    GET  /stats               job counters (incl. dedup_hits) + states
    GET  /healthz             liveness probe

Every error is JSON (``{"error": ...}``) with a proper status code:
malformed requests are 400s, unknown jobs/paths 404s, wrong methods
405s — a confused client is told so, never hung up on.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.obs import trends
from repro.obs.dashboard import render_dashboard
from repro.runtime.log import get_logger

from repro.service.jobs import Job, JobTable, normalize_request
from repro.service.scheduler import JobRunner

logger = get_logger("service")

#: request bodies above this are rejected (the submit payload is tiny).
MAX_BODY_BYTES = 1 << 20

#: content type per report format.
_REPORT_CONTENT_TYPE = {
    "text": "text/plain; charset=utf-8",
    "json": "application/json",
    "csv": "text/csv; charset=utf-8",
}

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: SSE tail poll period — cheap enough to feel live, coarse enough to
#: stay off the profiler.
SSE_POLL_S = 0.05


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _job_doc(job: Job) -> dict[str, Any]:
    doc = job.to_dict()
    doc["links"] = {
        "self": f"/jobs/{job.id}",
        "report": f"/jobs/{job.id}/report",
        "events": f"/jobs/{job.id}/events",
    }
    return doc


class ServiceServer:
    """One bound listener over a job table + runner pair."""

    def __init__(
        self,
        table: JobTable,
        runner: JobRunner,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.table = table
        self.runner = runner
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self.started_ts = time.time()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> int:
        """Bind and listen; returns the bound port (``port=0`` works)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, then drain the runner (jobs never lost)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await asyncio.get_running_loop().run_in_executor(
            None, self.runner.shutdown
        )

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except _HttpError as exc:
                await self._send_json(writer, exc.status, {"error": str(exc)})
                return
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return  # client went away mid-request
            try:
                await self._dispatch(writer, method, path, body)
            except _HttpError as exc:
                await self._send_json(writer, exc.status, {"error": str(exc)})
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:  # one bad handler must not kill the server
                logger.error("handler error for %s %s: %s", method, path, exc)
                await self._send_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _HttpError(400, f"body too large (max {MAX_BODY_BYTES} bytes)")
        body = await reader.readexactly(length) if length else b""
        return method, path, body

    # -- routing -------------------------------------------------------
    async def _dispatch(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        target: str,
        body: bytes,
    ) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        segments = [s for s in path.split("/") if s]

        if path == "/healthz":
            self._require(method, "GET")
            await self._send_json(writer, 200, {
                "status": "ok", "uptime_s": round(time.time() - self.started_ts, 3),
            })
        elif path == "/stats":
            self._require(method, "GET")
            await self._send_json(writer, 200, self.table.stats())
        elif path == "/jobs":
            if method == "POST":
                await self._post_job(writer, body)
            elif method == "GET":
                await self._send_json(writer, 200, {
                    "jobs": [_job_doc(j) for j in self.table.jobs()],
                })
            else:
                raise _HttpError(405, "use GET or POST on /jobs")
        elif len(segments) >= 2 and segments[0] == "jobs":
            self._require(method, "GET")
            job = self.table.get(segments[1])
            if job is None:
                raise _HttpError(404, f"no such job {segments[1]!r}")
            tail = segments[2] if len(segments) > 2 else ""
            if len(segments) > 3:
                raise _HttpError(404, f"unknown path {path!r}")
            if tail == "":
                await self._send_json(writer, 200, _job_doc(job))
            elif tail == "report":
                await self._get_report(writer, job)
            elif tail == "events":
                await self._stream_events(writer, job)
            elif tail == "why":
                await self._get_why(writer, job, query)
            else:
                raise _HttpError(404, f"unknown path {path!r}")
        elif path == "/ledger":
            self._require(method, "GET")
            records = self.runner.ledger.records()
            limit = self._int_query(query, "limit", len(records))
            await self._send_json(writer, 200, {
                "total": len(records),
                "records": records[-limit:] if limit >= 0 else records,
            })
        elif path == "/ledger/diff":
            self._require(method, "GET")
            await self._get_ledger_diff(writer, query)
        elif path == "/dashboard":
            self._require(method, "GET")
            payload = render_dashboard(self.runner.ledger.records())
            await self._send(writer, 200, payload.encode(),
                             "text/html; charset=utf-8")
        else:
            raise _HttpError(404, f"unknown path {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected}")

    @staticmethod
    def _int_query(query: dict[str, str], key: str, default: int) -> int:
        try:
            return int(query.get(key, default))
        except ValueError:
            raise _HttpError(400, f"query parameter {key!r} must be an "
                                  "integer") from None

    # -- handlers ------------------------------------------------------
    async def _post_job(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError):
            raise _HttpError(400, "request body must be valid JSON") from None
        try:
            config, ids, fmt = normalize_request(payload)
        except ValueError as exc:
            raise _HttpError(400, str(exc)) from None
        # submit() touches the journal (blocking I/O) — keep it off the loop
        job, disposition = await asyncio.get_running_loop().run_in_executor(
            None, self.table.submit, config, ids, fmt
        )
        if disposition == "queued":
            self.runner.enqueue(job)
        doc = _job_doc(job)
        doc["disposition"] = disposition
        await self._send_json(writer, 202 if disposition == "queued" else 200, doc)

    async def _get_report(self, writer: asyncio.StreamWriter, job: Job) -> None:
        if job.state == "failed":
            raise _HttpError(409, f"job {job.id} failed "
                                  f"({(job.error or {}).get('kind', '?')}); "
                                  "no report was produced")
        if job.state != "done":
            raise _HttpError(404, f"job {job.id} is {job.state}; "
                                  "report not available yet")
        path = self.table.report_path(job.digest, job.fmt)
        try:
            payload = path.read_bytes()
        except OSError:
            raise _HttpError(404, f"report for job {job.id} is no longer "
                                  "in the store") from None
        await self._send(writer, 200, payload, _REPORT_CONTENT_TYPE[job.fmt])

    async def _get_why(
        self, writer: asyncio.StreamWriter, job: Job, query: dict[str, str]
    ) -> None:
        """Gate-level choke blame for one cycle of this job's config."""
        from argparse import Namespace

        from repro.experiments.audit_cli import _experiment_blame

        if "cycle" not in query:
            raise _HttpError(400, "query parameter 'cycle' is required")
        cycle = self._int_query(query, "cycle", 0)
        experiment = query.get("experiment", job.experiments[0])
        if experiment not in job.experiments:
            raise _HttpError(400, f"experiment {experiment!r} is not part "
                                  f"of job {job.id}")
        args = Namespace(
            experiment=experiment,
            cycle=cycle,
            benchmark=query.get("benchmark", "mcf"),
            corner=query.get("corner", "NTC"),
            chip_seed=None,
            fast=job.config.get("width") != 32,
            checkpoint_dir=str(self.table.root / "checkpoints"),
        )
        loop = asyncio.get_running_loop()
        try:
            lines = await loop.run_in_executor(None, _experiment_blame, args)
        except SystemExit as exc:
            raise _HttpError(400, str(exc)) from None
        await self._send_json(writer, 200, {
            "job": job.id, "experiment": experiment, "cycle": cycle,
            "benchmark": args.benchmark, "corner": args.corner,
            "lines": [line.strip() for line in lines],
        })

    async def _get_ledger_diff(
        self, writer: asyncio.StreamWriter, query: dict[str, str]
    ) -> None:
        run_a, run_b = query.get("a"), query.get("b")
        if not run_a or not run_b:
            raise _HttpError(400, "query parameters 'a' and 'b' are required")
        try:
            record_a = self.runner.ledger.resolve(run_a)
            record_b = self.runner.ledger.resolve(run_b)
        except LookupError as exc:
            raise _HttpError(404, str(exc)) from None
        result = trends.diff_records(record_a, record_b)
        # JSON has no Infinity: the "new metric" sentinel becomes null.
        for entry in result.get("changed", {}).values():
            if entry.get("rel") == float("inf"):
                entry["rel"] = None
        await self._send_json(writer, 200, result)

    # -- SSE -----------------------------------------------------------
    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Tail the job's event stream as Server-Sent Events.

        Replays everything already in the file, then polls for new
        whole lines until the job reaches a terminal state and the file
        is drained.  The crash-tolerant reader semantics match
        :func:`repro.obs.events.iter_events`: a truncated tail (a
        writer caught mid-append) is simply not emitted until its
        newline arrives — and if it never does, the stream still
        terminates cleanly at the job's terminal state.
        """
        source = job.dedup_of or job.id  # dedup hits replay the original run
        events_path = self.table.events_path(source)
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        offset = 0
        pending = b""
        while True:
            current = self.table.get(job.id)
            terminal = current is None or current.state in ("done", "failed")
            chunk = b""
            try:
                with open(events_path, "rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                pass
            if chunk:
                offset += len(chunk)
                pending += chunk
                *lines, pending = pending.split(b"\n")
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        json.loads(line)  # replay only parseable events
                    except ValueError:
                        continue
                    writer.write(b"data: " + line + b"\n\n")
                await writer.drain()
            elif terminal:
                state = current.state if current is not None else "unknown"
                done = json.dumps({"id": job.id, "state": state},
                                  sort_keys=True)
                writer.write(b"event: done\ndata: " + done.encode() + b"\n\n")
                await writer.drain()
                return
            else:
                await asyncio.sleep(SSE_POLL_S)

    # -- response plumbing ---------------------------------------------
    async def _send_json(
        self, writer: asyncio.StreamWriter, status: int, doc: dict[str, Any]
    ) -> None:
        payload = (json.dumps(doc, sort_keys=True) + "\n").encode()
        await self._send(writer, status, payload, "application/json")

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: bytes,
        content_type: str,
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + payload)
        await writer.drain()


def make_service(
    root: str,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    retries: int = 0,
    ledger_dir: str | None = None,
) -> ServiceServer:
    """Wire table + runner + server over one state directory."""
    table = JobTable(root)
    runner = JobRunner(
        table,
        ledger_dir=ledger_dir,
        jobs=jobs,
        retries=retries,
    )
    return ServiceServer(table, runner, host=host, port=port)


class ServiceThread:
    """A service running on a background thread (tests, QA oracle).

    Boots the asyncio loop + server off-thread, exposes the bound port,
    and tears everything down (graceful: drains the running job, blames
    the queued ones) on :meth:`stop`.
    """

    def __init__(self, root: str, **kwargs: Any) -> None:
        import threading

        self.server = make_service(root, **kwargs)
        self.port: int = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="service-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")

    @property
    def table(self) -> JobTable:
        return self.server.table

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.port = await self.server.start()
        self._stopped = asyncio.Event()
        self._ready.set()
        await self._stopped.wait()
        await self.server.stop()

    def stop(self) -> None:
        loop = self._loop
        if loop is None or not self._thread.is_alive():
            return
        loop.call_soon_threadsafe(self._stopped.set)
        self._thread.join(timeout=60)
