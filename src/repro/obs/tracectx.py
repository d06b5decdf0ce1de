"""Trace-context propagation and per-worker clock-offset correction.

The telemetry layer (PR 3) merges per-process shards into one Chrome
trace, which works because fork workers inherit the parent's
``perf_counter`` epoch — every shard shares one timeline.  Remote
workers do not: each worker process has its own epoch, so its span
timestamps are meaningless on the coordinator's timeline (the PR 6
span-loss bug).  This module supplies the two missing pieces:

* **Trace identity.**  :func:`new_trace_id` / :func:`new_span_id` mint
  the ids a run propagates: the coordinator stamps its ``trace_id``
  into every task frame, workers stamp it into every span they record,
  and the merged trace carries it as document metadata — one id links
  the report, the ledger record, the event stream, and the trace.

* **Clock-offset estimation.**  :class:`ClockSync` estimates each
  worker's timeline offset NTP-style from request/response round
  trips (the hello handshake and every task-ack heartbeat carry the
  worker's timeline clock): for coordinator send/receive times ``t1``
  / ``t4`` and worker time ``tw``, one sample estimates

      offset = tw - (t1 + t4) / 2        (worker minus coordinator)

  with uncertainty ``rtt / 2 = (t4 - t1) / 2`` — the worker's reading
  could sit anywhere inside the round trip.  The minimum-RTT sample
  wins (shorter round trip = tighter bound), mirroring how NTP filters
  its sample clique.  Correction quality is an explicit tier, modelled
  on the signal-recorder GPS_LOCKED -> WALL_CLOCK hierarchy:

  ========== ====================================================
  tier        meaning
  ========== ====================================================
  synced      >= 2 accepted samples, uncertainty <= 5 ms
  coarse      >= 1 accepted sample (wide or lone round trip)
  uncorrected no usable sample; timestamps pass through unshifted
  ========== ====================================================

  :func:`correct_shard` applies the offset to a worker shard's trace
  events and labels the worker's process lane with its tier, so a
  Perfetto view of a fleet run states its own timestamp trustworthiness
  instead of silently interleaving incomparable clocks.
"""

from __future__ import annotations

import os
import time
from typing import Any

from repro.obs.recorder import _EPOCH

#: quality tiers, best to worst (the signal-recorder tiering model).
QUALITY_SYNCED = "synced"
QUALITY_COARSE = "coarse"
QUALITY_UNCORRECTED = "uncorrected"

#: promotion thresholds for :attr:`ClockSync.quality`.
SYNCED_MIN_SAMPLES = 2
SYNCED_MAX_UNCERTAINTY_US = 5000.0


def new_trace_id() -> str:
    """A 128-bit run-scoped trace id (hex, W3C traceparent sized)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A 64-bit span id for parent linkage across the wire."""
    return os.urandom(8).hex()


def timeline_now_us() -> float:
    """Now on this process's trace timeline (µs since the obs epoch).

    The same clock :class:`~repro.obs.recorder.TelemetryRecorder` stamps
    span events with, so round-trip samples and span timestamps are
    directly comparable.
    """
    return (time.perf_counter() - _EPOCH) * 1e6


class ClockSync:
    """Min-RTT NTP-style offset estimator for one remote worker clock.

    Feed it round-trip samples with :meth:`add_sample`; read
    ``offset_us`` / ``uncertainty_us`` / ``quality``.  Degrades
    gracefully: with no accepted samples the quality is
    ``uncorrected`` and :meth:`correct_ts` is the identity.
    """

    __slots__ = ("samples", "rejected", "offset_us", "uncertainty_us")

    def __init__(self) -> None:
        self.samples = 0
        self.rejected = 0
        self.offset_us: float | None = None
        self.uncertainty_us: float | None = None

    def add_sample(
        self, t_send_us: float, t_worker_us: float, t_recv_us: float
    ) -> bool:
        """Fold one round trip in; False if the sample was rejected.

        A negative RTT (receive before send) is non-causal — a clock
        bug or a chaos filter replaying frames — and is dropped rather
        than poisoning the estimate.  Zero RTT is accepted: it is the
        best possible sample (uncertainty 0), not an error.
        """
        rtt = t_recv_us - t_send_us
        if rtt < 0:
            self.rejected += 1
            return False
        self.samples += 1
        uncertainty = rtt / 2.0
        if self.uncertainty_us is None or uncertainty <= self.uncertainty_us:
            self.offset_us = t_worker_us - (t_send_us + t_recv_us) / 2.0
            self.uncertainty_us = uncertainty
        return True

    @property
    def quality(self) -> str:
        if self.offset_us is None:
            return QUALITY_UNCORRECTED
        if (self.samples >= SYNCED_MIN_SAMPLES
                and self.uncertainty_us is not None
                and self.uncertainty_us <= SYNCED_MAX_UNCERTAINTY_US):
            return QUALITY_SYNCED
        return QUALITY_COARSE

    def correct_ts(self, ts_us: float) -> float:
        """A worker timestamp mapped onto the coordinator timeline.

        Clamped at 0 because the trace schema (and Perfetto) treat
        negative timestamps as malformed; sub-uncertainty underflow at
        the very start of a run is the only way to get below zero.
        """
        if self.offset_us is None:
            return ts_us
        return max(0.0, ts_us - self.offset_us)

    def describe(self) -> str:
        """Human lane label suffix, e.g. ``"synced ±0.4ms"``."""
        if self.offset_us is None:
            return QUALITY_UNCORRECTED
        return f"{self.quality} ±{(self.uncertainty_us or 0.0) / 1000.0:.1f}ms"

    def as_dict(self) -> dict[str, Any]:
        return {
            "quality": self.quality,
            "samples": self.samples,
            "rejected": self.rejected,
            "offset_us": round(self.offset_us, 1)
            if self.offset_us is not None else None,
            "uncertainty_us": round(self.uncertainty_us, 1)
            if self.uncertainty_us is not None else None,
        }


def correct_shard(doc: dict[str, Any], sync: ClockSync) -> dict[str, Any]:
    """A worker shard document rebased onto the coordinator timeline.

    Only complete-span (``"ph": "X"``) events carry worker wall-clock
    timestamps; metadata events (process names, pinned at ts 0) and
    every metric pass through untouched — durations and histograms are
    offset-free by construction.  The worker's process lane is
    relabelled with the correction tier so the merged trace is honest
    about each lane's timestamp quality, and the applied correction is
    recorded under a ``clock`` key for tooling.
    """
    corrected = dict(doc)
    corrected["clock"] = sync.as_dict()
    events = []
    for event in doc.get("trace_events", []):
        event = dict(event)
        if event.get("ph") == "X":
            event["ts"] = round(sync.correct_ts(float(event.get("ts", 0.0))), 1)
        elif event.get("ph") == "M" and event.get("name") == "process_name":
            args = dict(event.get("args", {}))
            args["name"] = f"{args.get('name', 'worker')} [clock: {sync.describe()}]"
            event["args"] = args
        events.append(event)
    corrected["trace_events"] = events
    return corrected

