"""The remote worker: a socket server that executes supervised tasks.

Run one per machine (or per core) with::

    python -m repro.experiments worker --listen 0.0.0.0:7070

The worker binds, prints ``READY <port>`` (port 0 picks an ephemeral
port — the printed value is the real one, which is how tests and the CI
fleet smoke wire coordinators to workers), then accepts coordinator
sessions forever.  Each session:

1. receives a ``hello`` frame carrying the pickled
   :class:`~repro.runtime.parallel.WorkerSpec` and the heartbeat period,
   and answers ``hello_ok``;
2. loops on ``task`` frames — each one runs
   :func:`~repro.runtime.parallel._run_experiment_task` (the same
   supervised body the process pool uses, chaos interposition and all)
   in a daemon thread while the session thread streams heartbeats;
3. replies with a ``result`` frame (pickled outcome + store-stats
   counters) or, if the task machinery itself broke, a ``task_error``;
4. ends on ``bye`` or EOF.

Sessions are threaded so a coordinator that declared this worker dead
(a partition it couldn't see through) can reconnect while the orphaned
session is still computing — the stale session's eventual result frame
dies on its closed socket, and the shared checkpoint store's claim
protocol makes the duplicated computation harmless.
"""

from __future__ import annotations

import argparse
import os
import socket
import threading
import time
from typing import Any

from repro import obs
from repro.obs.tracectx import timeline_now_us
from repro.runtime.backends.frames import FrameError, FrameStream, pack_pickle, unpack_pickle
from repro.runtime.log import configure, get_logger
from repro.runtime.parallel import WorkerSpec, _run_experiment_task

logger = get_logger("worker")

PROTOCOL_VERSION = 1


class _WorkerState:
    """Live counters one worker process exposes via ``status`` frames."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self.tasks_served = 0
        self.sessions_total = 0
        self.inflight: dict[str, str] = {}  # peer -> experiment_id

    def task_started(self, peer: str, experiment_id: str) -> None:
        with self._lock:
            self.inflight[peer] = experiment_id

    def task_finished(self, peer: str) -> None:
        with self._lock:
            self.inflight.pop(peer, None)
            self.tasks_served += 1

    def status(self) -> dict[str, Any]:
        with self._lock:
            return {
                "type": "status_ok",
                "protocol": PROTOCOL_VERSION,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "uptime_s": round(time.monotonic() - self._started, 3),
                "sessions_total": self.sessions_total,
                "tasks_served": self.tasks_served,
                "inflight": sorted(self.inflight.values()),
                "tracing": obs.enabled(),
            }


def _run_task(
    stream: FrameStream,
    spec: WorkerSpec,
    experiment_id: str,
    heartbeat_s: float,
    span_ctx: dict[str, Any] | None = None,
) -> None:
    """Execute one task, heartbeating until the body thread finishes."""
    box: dict[str, Any] = {}

    def body() -> None:
        try:
            if span_ctx:
                with obs.span("worker.remote_task", experiment=experiment_id,
                              parent_span_id=span_ctx.get("parent")):
                    box["outcome"], box["stats"] = _run_experiment_task(
                        spec, experiment_id
                    )
            else:
                box["outcome"], box["stats"] = _run_experiment_task(
                    spec, experiment_id
                )
        except BaseException as exc:  # reported, never kills the session
            box["error"] = f"{type(exc).__name__}: {exc}"

    thread = threading.Thread(
        target=body, name=f"task-{experiment_id}", daemon=True
    )
    thread.start()
    # the immediate ack doubles as "task accepted" for the deadline clock
    # and — carrying the worker's timeline clock against the send time
    # the coordinator recorded — one NTP-style clock-offset sample
    stream.send({
        "type": "heartbeat", "experiment_id": experiment_id,
        "ack": True, "now_us": round(timeline_now_us(), 1),
    })
    while thread.is_alive():
        thread.join(timeout=heartbeat_s)
        if thread.is_alive():
            stream.send({
                "type": "heartbeat", "experiment_id": experiment_id,
                "now_us": round(timeline_now_us(), 1),
            })
    if "error" in box:
        logger.warning("task %s broke: %s", experiment_id, box["error"])
        stream.send(
            {
                "type": "task_error",
                "experiment_id": experiment_id,
                "message": box["error"],
            }
        )
        return
    result = {
        "type": "result",
        "experiment_id": experiment_id,
        "outcome": pack_pickle(box["outcome"]),
        "stats": box["stats"] or {},
    }
    # Ship the cumulative telemetry snapshot with every result: the
    # coordinator keeps the latest per pid and rebases it through the
    # clock-offset estimate — this is how remote worker spans reach the
    # merged trace at all (their raw epochs are incomparable).
    telemetry = obs.active()
    if telemetry is not None and telemetry.recorder is not None:
        result["shard"] = telemetry.recorder.snapshot_doc()
    stream.send(result)


def _serve_session(sock: socket.socket, peer: str, state: _WorkerState) -> None:
    """One coordinator connection, hello through bye."""
    stream = FrameStream(sock)
    try:
        hello = stream.recv(timeout=10.0)
        if hello is None:
            logger.warning("%s: no hello; dropping", peer)
            return
        if hello.get("type") == "status":
            # a fleet-health probe, not a coordinator: answer and close
            stream.send(state.status())
            return
        if hello.get("type") != "hello":
            logger.warning("%s: no hello (got %r); dropping", peer, hello)
            return
        if hello.get("protocol") != PROTOCOL_VERSION:
            logger.warning(
                "%s: protocol %r != %d; dropping",
                peer, hello.get("protocol"), PROTOCOL_VERSION,
            )
            return
        spec: WorkerSpec = unpack_pickle(hello["spec"])
        heartbeat_s = float(hello.get("heartbeat_s", 0.5))
        # The session's telemetry records metrics in memory under the
        # run's trace id (its shard travels back inside result frames);
        # the event file, the shard directory and the audit belong to
        # the coordinator.  Each session replaces the previous one's, so
        # a reused worker never leaks one run's spans into the next.
        obs.install(obs.Telemetry(
            obs.TelemetrySpec(
                metrics=spec.telemetry.metrics, trace_id=spec.telemetry.trace_id
            ),
            process="remote-worker",
        ))
        stream.send({
            "type": "hello_ok",
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "now_us": round(timeline_now_us(), 1),
        })
        logger.info("%s: session open (heartbeat %.2fs)", peer, heartbeat_s)
        state.sessions_total += 1
        while True:
            frame = stream.recv(timeout=None)
            if frame is None or frame.get("type") == "bye":
                logger.info("%s: session closed", peer)
                return
            if frame.get("type") == "task":
                experiment_id = frame["experiment_id"]
                logger.info("%s: task %s", peer, experiment_id)
                obs.inc("backend.worker_tasks")
                state.task_started(peer, experiment_id)
                try:
                    _run_task(
                        stream, spec, experiment_id, heartbeat_s,
                        span_ctx=frame.get("span"),
                    )
                finally:
                    state.task_finished(peer)
            elif frame.get("type") == "status":
                stream.send(state.status())
            else:
                logger.warning("%s: unknown frame %r", peer, frame.get("type"))
    except TimeoutError:
        logger.warning("%s: hello timed out; dropping", peer)
    except (OSError, FrameError) as exc:
        # the coordinator vanished mid-session — from here that is
        # routine (it will blame, resubmit, and maybe reconnect)
        logger.info("%s: connection lost: %s", peer, exc)
    finally:
        stream.close()


def serve(host: str, port: int, max_sessions: int | None = None) -> None:
    """Bind, announce readiness, accept sessions until interrupted.

    ``max_sessions`` bounds the accept loop (tests and the CI smoke use
    it so a worker winds down by itself instead of needing a kill).
    """
    server = socket.create_server((host, port))
    bound_port = server.getsockname()[1]
    print(f"READY {bound_port}", flush=True)
    logger.info("worker listening on %s:%d", host, bound_port)
    accepted = 0
    state = _WorkerState()
    sessions: list[threading.Thread] = []
    try:
        while max_sessions is None or accepted < max_sessions:
            sock, address = server.accept()
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            accepted += 1
            peer = f"{address[0]}:{address[1]}"
            thread = threading.Thread(
                target=_serve_session,
                args=(sock, peer, state),
                name=f"session-{peer}",
                daemon=True,
            )
            thread.start()
            sessions.append(thread)
    except KeyboardInterrupt:
        logger.info("worker interrupted; exiting")
    finally:
        server.close()
    for thread in sessions:  # bounded runs drain before exiting
        thread.join()


def worker_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="serve experiment tasks to a remote-backend coordinator",
    )
    parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address; port 0 picks a free port (printed as READY <port>)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=None,
        metavar="N",
        help="exit after serving N coordinator sessions (default: run forever)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    args = parser.parse_args(argv)
    configure(args.verbose)
    host, _, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        parser.error(f"invalid --listen address {args.listen!r} (want HOST:PORT)")
    serve(host or "127.0.0.1", port, max_sessions=args.max_sessions)
    return 0


if __name__ == "__main__":
    raise SystemExit(worker_main())
