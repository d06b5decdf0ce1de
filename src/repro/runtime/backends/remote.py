"""Socket coordinator for the remote-worker backend.

The coordinator connects out to a fleet of workers (each one a
``python -m repro.runtime.backends.worker --listen HOST:PORT`` process,
usually on other machines sharing the checkpoint store), ships them the
:class:`WorkerSpec`, and streams tasks over length-prefixed JSON frames
(:mod:`repro.runtime.backends.frames`).  Results merge in submission
order, so the report is bit-identical to the ``inproc`` reference.

Robustness is the design centre — every failure mode is a first-class
input, not an afterthought:

* **Heartbeats + deadline.**  A busy worker heartbeats every
  ``heartbeat_s``; a worker silent past ``heartbeat_deadline_s`` with a
  task in flight is declared dead (``kind="partition"`` blame) and its
  work is resubmitted elsewhere.
* **Crash detection.**  A connection that drops (EOF, reset — the
  signature of a killed worker process) resubmits the in-flight task
  with ``kind="crash"`` blame once the per-task loss budget
  (``crash_retries``, mirroring the process pool) is exhausted.
* **Backoff with seeded jitter.**  Reconnects and initial connects back
  off exponentially with deterministic jitter
  (:mod:`repro.runtime.backoff`), so a flapping worker cannot induce a
  reconnect storm and two coordinators never probe in lockstep.
* **Work stealing.**  Tasks are pre-assigned round-robin; an idle
  worker steals from the tail of the longest remaining queue, so one
  slow machine cannot gate the run.
* **Degradation ladder.**  No reachable worker at start — or every
  worker lost mid-run with no reconnect left — falls back to the local
  ``procpool`` backend with a logged downgrade.  A remote run may get
  slower; it never hangs and never loses determinism.

Duplicate work from resubmission is safe by construction: artefacts are
pure functions of (config, key) arbitrated through the shared
:class:`CheckpointStore` claim protocol, which is exactly the
cross-machine single-flight primitive the process pool already used
locally.
"""

from __future__ import annotations

import dataclasses
import queue
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import obs
from repro.obs.tracectx import ClockSync, correct_shard, timeline_now_us
from repro.runtime.backends.base import ExecutorBackend, SubmissionOrderMerger
from repro.runtime.backends.frames import FrameError, FrameStream, pack_pickle, unpack_pickle
from repro.runtime.backends.procpool import ProcpoolBackend
from repro.runtime.backoff import backoff_delay
from repro.runtime.chaos import ChaosNet
from repro.runtime.checkpoint import StoreStats, config_fingerprint
from repro.runtime.executor import FailureRecord, RunOutcome, RunReport
from repro.runtime.log import get_logger
from repro.runtime.parallel import WorkerSpec

logger = get_logger("remote")

PROTOCOL_VERSION = 1

#: main-loop tick: inbox poll interval and deadline-check granularity
_TICK_S = 0.05


def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` (host defaults to localhost for bare ports)."""
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", text
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ValueError(f"invalid worker address {text!r} (want HOST:PORT)") from None


@dataclass(frozen=True)
class RemoteOptions:
    """Coordinator-side knobs (workers inherit timing via the hello)."""

    workers: tuple[str, ...]
    heartbeat_s: float = 0.5
    heartbeat_deadline_s: float = 5.0
    connect_timeout_s: float = 3.0
    connect_attempts: int = 2
    reconnect_attempts: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    chaos_net: ChaosNet | None = None


class _WorkerConn:
    """One live worker connection plus its reader thread and task queue."""

    def __init__(
        self,
        index: int,
        address: tuple[str, int],
        stream: FrameStream,
        inbox: "queue.Queue[tuple[int, str, Any]]",
        chaos: ChaosNet | None,
    ) -> None:
        self.index = index
        self.address = address
        self.stream = stream
        self.inflight: str | None = None
        self.last_seen = time.monotonic()
        self.tasks: deque[str] = deque()
        self.alive = True
        #: worker process id from hello_ok (0 for pre-tracing workers)
        self.pid = 0
        #: clock-offset estimator for this worker's timeline (shared
        #: across reconnects to the same pid via the run's registry)
        self.clock = ClockSync()
        #: send time of the in-flight task frame — paired with the ack
        #: heartbeat's ``now_us`` it yields one clock-offset sample
        self.task_sent_us: float | None = None
        self.task_acked = False
        self._chaos = chaos
        self._reader = threading.Thread(
            target=self._read_loop,
            args=(inbox,),
            name=f"remote-reader-{index}",
            daemon=True,
        )
        self._reader.start()

    @property
    def label(self) -> str:
        return f"worker {self.index} ({self.address[0]}:{self.address[1]})"

    def _read_loop(self, inbox: "queue.Queue[tuple[int, str, Any]]") -> None:
        while True:
            try:
                payload = self.stream.recv(timeout=None)
            except (FrameError, OSError) as exc:
                inbox.put((self.index, "gone", f"{type(exc).__name__}: {exc}"))
                return
            if payload is None:
                inbox.put((self.index, "gone", "connection closed"))
                return
            if self._chaos is not None:
                payload = self._chaos.filter_recv(self.index, payload)
                if payload is None:
                    continue
            inbox.put((self.index, "frame", payload))

    def send(self, payload: dict[str, Any]) -> bool:
        """False on a send that fails (the caller declares the loss)."""
        if self._chaos is not None and not self._chaos.allow_send(self.index):
            return True  # black-holed: "succeeded" as far as TCP is concerned
        try:
            self.stream.send(payload)
        except (OSError, FrameError):
            return False
        return True

    def close(self) -> None:
        self.alive = False
        self.stream.close()


def _handshake(
    address: tuple[str, int], spec_blob: str, options: RemoteOptions
) -> tuple[FrameStream, dict[str, Any], float, float]:
    """Connect + hello on one address; raises OSError/FrameError on failure.

    Returns ``(stream, hello_ok, t_send_us, t_recv_us)`` — the send/recv
    timeline timestamps bracket the worker's ``now_us`` in the reply,
    which is one NTP-style clock-offset sample for free.
    """
    sock = socket.create_connection(address, timeout=options.connect_timeout_s)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    stream = FrameStream(sock)
    try:
        t_send_us = timeline_now_us()
        stream.send(
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "spec": spec_blob,
                "heartbeat_s": options.heartbeat_s,
            }
        )
        reply = stream.recv(timeout=options.connect_timeout_s)
        t_recv_us = timeline_now_us()
    except TimeoutError:
        stream.close()
        raise OSError("worker did not answer the hello in time") from None
    except (OSError, FrameError):
        stream.close()
        raise
    if reply is None or reply.get("type") != "hello_ok":
        stream.close()
        raise OSError(f"bad hello reply: {reply!r}")
    return stream, reply, t_send_us, t_recv_us


class RemoteBackend(ExecutorBackend):
    name = "remote"

    def __init__(self, options: RemoteOptions) -> None:
        if not options.workers:
            raise ValueError("remote backend needs at least one worker address")
        self.options = options
        self._clock_by_pid: dict[int, ClockSync] = {}
        self._shards_by_pid: dict[int, dict[str, Any]] = {}
        self._span_ctx: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    def run(
        self,
        experiment_ids: Sequence[str],
        spec: WorkerSpec,
        jobs: int | None = None,
        on_outcome: Callable[[RunOutcome], None] | None = None,
        crash_retries: int = 1,
    ) -> tuple[RunReport, StoreStats]:
        options = self.options
        # started-markers are a process-pool blame device; remote blame
        # is connection-based, and the parent's scratch dir would not
        # exist on a remote machine anyway.  Telemetry is the worker
        # session's business: it records metrics in memory only and
        # returns them inside result frames (clock-corrected here).
        shipped = dataclasses.replace(spec, scratch_dir=None)
        spec_blob = pack_pickle(shipped)
        merger = SubmissionOrderMerger(experiment_ids, on_outcome)
        stats = StoreStats()
        inbox: "queue.Queue[tuple[int, str, Any]]" = queue.Queue()
        # run-local tracing state (reset per run; reader threads never
        # touch these — all frame handling happens on this thread)
        self._clock_by_pid: dict[int, ClockSync] = {}
        self._shards_by_pid: dict[int, dict[str, Any]] = {}
        self._span_ctx = (
            {"parent": spec.telemetry.parent_span_id}
            if spec.telemetry.trace_id else None
        )

        workers = self._connect_fleet(spec_blob, inbox)
        if not workers:
            logger.warning(
                "no remote worker reachable (%s); downgrading to procpool",
                ", ".join(options.workers),
            )
            obs.inc("backend.downgrades")
            obs.emit("downgrade", reason="no remote worker reachable")
            return ProcpoolBackend().run(
                experiment_ids, spec, jobs=jobs,
                on_outcome=on_outcome, crash_retries=crash_retries,
            )
        obs.gauge("backend.workers", len(workers))

        # Deterministic round-robin pre-assignment; stealing rebalances.
        order = sorted(workers)
        for position, eid in enumerate(experiment_ids):
            target = workers[order[position % len(order)]]
            target.tasks.append(eid)
            obs.emit("scheduled", experiment=eid, worker=target.label)
        unassigned: deque[str] = deque()
        lost: dict[str, int] = {}
        #: reconnect schedule: address -> (attempt, not-before monotonic)
        reconnect: dict[tuple[str, int], tuple[int, float]] = {}
        next_index = max(workers) + 1

        with obs.span("backend.remote", experiments=len(merger.ids), workers=len(workers)):
            try:
                while not merger.complete:
                    self._dispatch(workers, unassigned, merger)
                    next_index = self._try_reconnects(
                        workers, reconnect, spec_blob, inbox, next_index
                    )
                    if not workers and not reconnect:
                        self._downgrade_remaining(
                            merger, spec, jobs, crash_retries, stats
                        )
                        break
                    self._drain_inbox(
                        inbox, workers, unassigned, merger, lost,
                        reconnect, spec, stats, crash_retries,
                    )
                    self._check_deadlines(
                        workers, unassigned, merger, lost,
                        reconnect, spec, crash_retries,
                    )
            finally:
                for conn in workers.values():
                    conn.send({"type": "bye"})
                    conn.close()
                self._receive_worker_shards()
        return merger.report(), stats

    def _receive_worker_shards(self) -> None:
        """Rebase collected worker shards into this process's merge.

        Each remote worker's spans are stamped against its own
        ``perf_counter`` epoch — meaningless here.  The per-pid
        :class:`ClockSync` (fed by hello and task-ack round trips)
        shifts them onto this process's timeline, and the corrected
        shard joins the run's telemetry merge in memory.
        """
        telemetry = obs.active()
        if telemetry is None or telemetry.recorder is None:
            return
        for pid in sorted(self._shards_by_pid):
            sync = self._clock_by_pid.get(pid) or ClockSync()
            telemetry.received.append(correct_shard(self._shards_by_pid[pid], sync))
            obs.inc("clock.shards_corrected")
            logger.info("worker pid %d shard rebased (%s)", pid, sync.describe())

    def _register_clock(
        self, conn: _WorkerConn, reply: dict[str, Any],
        t_send_us: float, t_recv_us: float,
    ) -> None:
        """Fold one hello round trip into the worker's clock estimate."""
        conn.pid = int(reply.get("pid") or 0)
        conn.clock = self._clock_by_pid.setdefault(conn.pid, ClockSync())
        _clock_sample(conn, t_send_us, reply.get("now_us"), t_recv_us)

    # ------------------------------------------------------------------
    def _connect_fleet(
        self, spec_blob: str, inbox: "queue.Queue[tuple[int, str, Any]]"
    ) -> dict[int, _WorkerConn]:
        """Initial connects, each with backoff-with-jitter retries."""
        options = self.options
        workers: dict[int, _WorkerConn] = {}
        for index, text in enumerate(options.workers):
            address = parse_address(text)
            for attempt in range(1, options.connect_attempts + 1):
                try:
                    stream, reply, t_send, t_recv = _handshake(
                        address, spec_blob, options
                    )
                except (OSError, FrameError) as exc:
                    logger.warning(
                        "connect to %s:%d failed (attempt %d/%d): %s",
                        address[0], address[1], attempt,
                        options.connect_attempts, exc,
                    )
                    if attempt < options.connect_attempts:
                        delay = backoff_delay(
                            attempt, options.backoff_base_s,
                            options.backoff_cap_s, seed=("connect", address),
                        )
                        obs.inc("backend.backoff_s", delay)
                        time.sleep(delay)
                else:
                    workers[index] = _WorkerConn(
                        index, address, stream, inbox, options.chaos_net
                    )
                    self._register_clock(workers[index], reply, t_send, t_recv)
                    logger.info("connected to %s", workers[index].label)
                    break
        return workers

    # ------------------------------------------------------------------
    def _dispatch(
        self,
        workers: dict[int, _WorkerConn],
        unassigned: deque[str],
        merger: SubmissionOrderMerger,
    ) -> None:
        """Feed every idle worker: own queue, then orphans, then steal."""
        for index in sorted(workers):
            conn = workers[index]
            if conn.inflight is not None:
                continue
            task = None
            if conn.tasks:
                task = conn.tasks.popleft()
            elif unassigned:
                task = unassigned.popleft()
            else:
                victim = max(
                    (c for c in workers.values() if c is not conn and c.tasks),
                    key=lambda c: len(c.tasks),
                    default=None,
                )
                if victim is not None:
                    task = victim.tasks.pop()
                    obs.inc("backend.steals")
                    obs.emit(
                        "steal", experiment=task,
                        worker=conn.label, victim=victim.label,
                    )
                    logger.info(
                        "%s stole %s from %s", conn.label, task, victim.label
                    )
            if task is None:
                continue
            conn.inflight = task
            conn.last_seen = time.monotonic()
            conn.task_sent_us = timeline_now_us()
            conn.task_acked = False
            obs.emit("claimed", experiment=task, worker=conn.label)
            if self.options.chaos_net is not None:
                self.options.chaos_net.task_sent(conn.index)
            frame: dict[str, Any] = {"type": "task", "experiment_id": task}
            if self._span_ctx is not None:
                frame["span"] = self._span_ctx
            if not conn.send(frame):
                # the send itself failed: the loss path below will
                # resubmit; the "gone" event from the reader finishes
                # the cleanup
                logger.warning("task send to %s failed", conn.label)

    # ------------------------------------------------------------------
    def _drain_inbox(
        self,
        inbox: "queue.Queue[tuple[int, str, Any]]",
        workers: dict[int, _WorkerConn],
        unassigned: deque[str],
        merger: SubmissionOrderMerger,
        lost: dict[str, int],
        reconnect: dict[tuple[str, int], tuple[int, float]],
        spec: WorkerSpec,
        stats: StoreStats,
        crash_retries: int,
    ) -> None:
        try:
            index, kind, payload = inbox.get(timeout=_TICK_S)
        except queue.Empty:
            return
        while True:
            conn = workers.get(index)
            if conn is not None:
                if kind == "gone":
                    self._lose_worker(
                        conn, "crash", str(payload), workers, unassigned,
                        merger, lost, reconnect, spec, crash_retries,
                    )
                elif kind == "frame":
                    self._handle_frame(
                        conn, payload, merger, lost, stats, spec, unassigned
                    )
            try:
                index, kind, payload = inbox.get_nowait()
            except queue.Empty:
                return

    def _handle_frame(
        self,
        conn: _WorkerConn,
        payload: dict[str, Any],
        merger: SubmissionOrderMerger,
        lost: dict[str, int],
        stats: StoreStats,
        spec: WorkerSpec,
        unassigned: deque[str],
    ) -> None:
        t_recv_us = timeline_now_us()
        conn.last_seen = time.monotonic()
        frame_type = payload.get("type")
        if frame_type == "heartbeat":
            obs.inc("backend.heartbeats")
            eid = payload.get("experiment_id")
            obs.emit("heartbeat", experiment=eid, worker=conn.label)
            if payload.get("ack") and not conn.task_acked:
                # the immediate task ack: the worker's timestamp between
                # our send and this receive is a clock-offset sample,
                # and "the worker actually started" is an event
                conn.task_acked = True
                if conn.task_sent_us is not None:
                    _clock_sample(conn, conn.task_sent_us, payload.get("now_us"), t_recv_us)
                obs.emit("started", experiment=eid, worker=conn.label)
            return
        if frame_type == "result":
            eid = payload.get("experiment_id")
            shard = payload.get("shard")
            if isinstance(shard, dict):
                # cumulative snapshot: the latest one per worker pid
                # supersedes the previous (stale results still carry
                # valid spans, so keep theirs too)
                pid = int(shard.get("pid") or conn.pid)
                self._shards_by_pid[pid] = shard
            if eid != conn.inflight:
                # a stale result from before a resubmission; the claim
                # protocol already made the duplicate harmless
                logger.info("%s sent stale result for %s", conn.label, eid)
                return
            outcome = unpack_pickle(payload["outcome"])
            if payload.get("stats"):
                stats.merge(payload["stats"])
            conn.inflight = None
            obs.emit(
                "result", experiment=eid, worker=conn.label,
                status="ok" if outcome.ok else outcome.failure.kind,
                elapsed_s=round(outcome.elapsed_s, 3),
            )
            if eid not in merger:
                merger.add(outcome)
            return
        if frame_type == "task_error":
            # orchestration failure inside the worker session (e.g. an
            # unpicklable result): contained like a crash, no retry —
            # it would fail identically everywhere
            eid = payload.get("experiment_id")
            message = payload.get("message", "remote task error")
            logger.warning("%s reported task error for %s: %s", conn.label, eid, message)
            obs.emit("crash", experiment=eid, worker=conn.label, reason=message)
            if eid == conn.inflight:
                conn.inflight = None
                if eid not in merger:
                    merger.add(
                        _blame_outcome(eid, spec, "crash", message, lost.get(eid, 0) + 1)
                    )
            return
        logger.warning("%s sent unknown frame type %r", conn.label, frame_type)

    # ------------------------------------------------------------------
    def _check_deadlines(
        self,
        workers: dict[int, _WorkerConn],
        unassigned: deque[str],
        merger: SubmissionOrderMerger,
        lost: dict[str, int],
        reconnect: dict[tuple[str, int], tuple[int, float]],
        spec: WorkerSpec,
        crash_retries: int,
    ) -> None:
        now = time.monotonic()
        deadline = self.options.heartbeat_deadline_s
        for conn in list(workers.values()):
            if conn.inflight is not None and now - conn.last_seen > deadline:
                self._lose_worker(
                    conn, "partition",
                    f"no heartbeat for {now - conn.last_seen:.1f}s "
                    f"(deadline {deadline:g}s)",
                    workers, unassigned, merger, lost, reconnect, spec,
                    crash_retries,
                )

    def _lose_worker(
        self,
        conn: _WorkerConn,
        kind: str,
        reason: str,
        workers: dict[int, _WorkerConn],
        unassigned: deque[str],
        merger: SubmissionOrderMerger,
        lost: dict[str, int],
        reconnect: dict[tuple[str, int], tuple[int, float]],
        spec: WorkerSpec,
        crash_retries: int,
    ) -> None:
        if workers.get(conn.index) is not conn:
            return  # already handled (e.g. deadline fired before "gone")
        del workers[conn.index]
        conn.close()
        obs.inc("backend.dead_workers")
        if kind == "partition":
            obs.inc("backend.partitions")
        obs.emit(
            kind, worker=conn.label, experiment=conn.inflight, reason=reason
        )
        logger.warning("%s lost (%s): %s", conn.label, kind, reason)
        # queued-but-never-started tasks migrate blame-free
        unassigned.extend(conn.tasks)
        conn.tasks.clear()
        eid = conn.inflight
        if eid is not None and eid not in merger:
            lost[eid] = lost.get(eid, 0) + 1
            if lost[eid] > crash_retries:
                merger.add(
                    _blame_outcome(
                        eid, spec, kind,
                        f"worker {conn.address[0]}:{conn.address[1]} {kind}: {reason}",
                        lost[eid],
                    )
                )
            else:
                obs.inc("backend.resubmits")
                obs.emit(
                    "resubmit", experiment=eid,
                    reason=f"{kind} on {conn.label} "
                           f"({lost[eid]}/{crash_retries})",
                )
                logger.warning(
                    "resubmitting %s (lost %d/%d)", eid, lost[eid], crash_retries
                )
                unassigned.appendleft(eid)
        if self.options.reconnect_attempts > 0:
            delay = backoff_delay(
                1, self.options.backoff_base_s, self.options.backoff_cap_s,
                seed=("reconnect", conn.address),
            )
            obs.inc("backend.backoff_s", delay)
            reconnect[conn.address] = (1, time.monotonic() + delay)

    # ------------------------------------------------------------------
    def _try_reconnects(
        self,
        workers: dict[int, _WorkerConn],
        reconnect: dict[tuple[str, int], tuple[int, float]],
        spec_blob: str,
        inbox: "queue.Queue[tuple[int, str, Any]]",
        next_index: int,
    ) -> int:
        now = time.monotonic()
        options = self.options
        for address, (attempt, not_before) in list(reconnect.items()):
            if now < not_before:
                continue
            try:
                stream, reply, t_send, t_recv = _handshake(
                    address, spec_blob, options
                )
            except (OSError, FrameError) as exc:
                if attempt >= options.reconnect_attempts:
                    logger.warning(
                        "giving up on %s:%d after %d reconnect attempt(s): %s",
                        address[0], address[1], attempt, exc,
                    )
                    del reconnect[address]
                else:
                    delay = backoff_delay(
                        attempt + 1, options.backoff_base_s,
                        options.backoff_cap_s, seed=("reconnect", address),
                    )
                    obs.inc("backend.backoff_s", delay)
                    reconnect[address] = (attempt + 1, now + delay)
            else:
                del reconnect[address]
                workers[next_index] = _WorkerConn(
                    next_index, address, stream, inbox, options.chaos_net
                )
                self._register_clock(workers[next_index], reply, t_send, t_recv)
                obs.inc("backend.reconnects")
                logger.info("reconnected to %s", workers[next_index].label)
                next_index += 1
        return next_index

    # ------------------------------------------------------------------
    def _downgrade_remaining(
        self,
        merger: SubmissionOrderMerger,
        spec: WorkerSpec,
        jobs: int | None,
        crash_retries: int,
        stats: StoreStats,
    ) -> None:
        remaining = merger.unresolved
        if not remaining:
            return
        logger.warning(
            "remote pool fully lost; running %d remaining experiment(s) "
            "via procpool", len(remaining),
        )
        obs.inc("backend.downgrades")
        obs.emit(
            "downgrade",
            reason=f"remote pool fully lost; {len(remaining)} task(s) to procpool",
        )
        report, fallback_stats = ProcpoolBackend(prefetch=False).run(
            remaining, spec, jobs=jobs, crash_retries=crash_retries
        )
        stats.merge(fallback_stats)
        for outcome in report.outcomes:
            merger.add(outcome)


def _clock_sample(
    conn: _WorkerConn, t_send_us: float, now_us: Any, t_recv_us: float
) -> None:
    """Fold one round trip into the worker's clock estimate.

    ``now_us`` is the worker's timeline clock from its reply; a worker
    that sent none (pre-tracing) stays uncorrected.
    """
    if now_us is not None and conn.clock.add_sample(t_send_us, float(now_us), t_recv_us):
        obs.inc("clock.samples")
        obs.emit(
            "clock", worker=conn.label, pid=conn.pid,
            tier=conn.clock.quality,
            offset_us=round(conn.clock.offset_us or 0.0, 1),
            uncertainty_us=round(conn.clock.uncertainty_us or 0.0, 1),
        )


def _blame_outcome(
    experiment_id: str, spec: WorkerSpec, kind: str, message: str, attempts: int
) -> RunOutcome:
    """A contained failure blaming a lost worker, never a dead run."""
    obs.inc("parallel.crashes" if kind == "crash" else "backend.partition_blames")
    failure = FailureRecord(
        experiment_id=experiment_id,
        kind=kind,
        error_type="WorkerCrash" if kind == "crash" else "WorkerPartition",
        message=message,
        traceback="",
        config_fingerprint=config_fingerprint(spec.config),
        elapsed_s=0.0,
        attempts=attempts,
        context=obs.recent_events(),
    )
    return RunOutcome(experiment_id, None, failure, 0.0, attempts=attempts)
