"""Content-addressed, checksum-verified checkpoint store.

The expensive artefacts of an experiment run — fabricated chips and
dynamic-timing error traces — are pure functions of the experiment
configuration plus a small key (seed, corner, benchmark, ...).  The
store persists them under a fingerprint of exactly those inputs, so an
interrupted ``all`` run resumes in seconds and a changed configuration
can never alias a stale artefact.

Failure philosophy (the paper's own): detect, contain, replay.  A load
NEVER raises on bad data — truncated files, flipped bits, foreign
pickles, and format-version mismatches are all detected (magic header +
SHA-256 payload checksum), logged, counted in :class:`StoreStats`, and
reported as a miss so the caller transparently recomputes.  Writes are
atomic (temp file in the same directory + ``os.replace``), so a crash
mid-write leaves the previous entry — or no entry — but never a torn
one.

Multi-process sharing (the ``claims=True`` mode used by the parallel
runtime): atomic writes already make concurrent writers *safe* — the
last ``os.replace`` wins and every artefact is a deterministic function
of its key, so duplicates are merely wasted work.  The claim protocol
removes the waste: before computing a missing entry a worker creates
``<key>.claim`` with ``O_CREAT | O_EXCL`` (an atomic test-and-set on
every POSIX filesystem); losers poll for the winner's entry instead of
recomputing.  A claim left behind by a dead worker goes stale after
``claim_stale_s`` and is broken; a waiter that exhausts its patience
falls back to computing the artefact itself — duplicate work is always
preferred over a deadlock.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import socket
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs
from repro.runtime.log import get_logger

logger = get_logger("checkpoint")

#: bump when the on-disk layout or artefact pickle schema changes;
#: entries with any other version are treated as misses, not errors.
FORMAT_VERSION = 1

_MAGIC = b"REPRO-CKPT"
_SUFFIX = ".ckpt"
_CLAIM_SUFFIX = ".claim"


def config_fingerprint(config: Any) -> str:
    """Stable hex fingerprint of an experiment configuration.

    Dataclasses are serialised field-by-field so the fingerprint changes
    whenever any knob (width, cycles, seeds, benchmark set, ...) does.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload: Any = dataclasses.asdict(config)
    else:
        payload = config
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def artefact_key(kind: str, config: Any, *parts: Any) -> str:
    """Filename-safe store key: ``<kind>-<hash(config, parts)>``."""
    digest = hashlib.sha256(
        json.dumps([config_fingerprint(config), *map(repr, parts)]).encode()
    ).hexdigest()[:24]
    return f"{kind}-{digest}"


@dataclass
class StoreStats:
    """Observable health of one store (asserted on by the chaos tests)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    write_errors: int = 0
    claims_won: int = 0
    claims_waited: int = 0
    claims_broken: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)

    def merge(self, other: "StoreStats | dict[str, int]") -> None:
        """Fold another process's counters into this one (parallel runs)."""
        counts = other.as_dict() if isinstance(other, StoreStats) else other
        for name, value in counts.items():
            setattr(self, name, getattr(self, name, 0) + int(value))


@dataclass
class CheckpointStore:
    """On-disk artefact cache keyed by :func:`artefact_key`.

    With ``resume=False`` every load reports a miss (forcing
    recomputation) but saves still happen, refreshing the store — the
    semantics of the CLI's ``--no-resume``.

    With ``claims=True`` (the parallel workers' mode) :meth:`fetch`
    arbitrates concurrent computation of the same key through claim
    files — see the module docstring for the protocol.
    """

    root: Path
    resume: bool = True
    stats: StoreStats = field(default_factory=StoreStats)
    claims: bool = False
    #: a claim older than this is presumed orphaned by a dead worker
    claim_stale_s: float = 600.0
    #: how often a waiting worker re-checks for the winner's entry
    claim_poll_s: float = 0.05

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path(self, key: str) -> Path:
        return self.root / f"{key}{_SUFFIX}"

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{_SUFFIX}"))

    # ------------------------------------------------------------------
    def save(self, key: str, obj: Any) -> bool:
        """Atomically persist ``obj``; returns False (and logs) on failure.

        A failed save is never fatal — the run simply loses resumability
        for this artefact.
        """
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            header = b"%s v%d %s\n" % (
                _MAGIC,
                FORMAT_VERSION,
                hashlib.sha256(payload).hexdigest().encode(),
            )
            self._atomic_write(self.path(key), header + payload)
        except Exception:
            self.stats.write_errors += 1
            obs.inc("checkpoint.write_errors")
            logger.warning("checkpoint save failed for %s", key, exc_info=True)
            return False
        self.stats.stores += 1
        obs.inc("checkpoint.stores")
        obs.inc("checkpoint.bytes_written", len(payload))
        logger.debug("stored %s (%d bytes)", key, len(payload))
        return True

    def load(self, key: str) -> Any | None:
        """The stored artefact, or None on miss/corruption (never raises)."""
        path = self.path(key)
        if not self.resume or not path.exists():
            self.stats.misses += 1
            obs.inc("checkpoint.misses")
            return None
        try:
            blob = path.read_bytes()
            header, _, payload = blob.partition(b"\n")
            magic, version, checksum = header.split(b" ")
            if magic != _MAGIC:
                raise ValueError("bad magic")
            if version != b"v%d" % FORMAT_VERSION:
                logger.info(
                    "checkpoint %s has format %s (want v%d); recomputing",
                    key, version.decode("ascii", "replace"), FORMAT_VERSION,
                )
                self.stats.misses += 1
                obs.inc("checkpoint.misses")
                return None
            if hashlib.sha256(payload).hexdigest().encode() != checksum:
                raise ValueError("checksum mismatch")
            obj = pickle.loads(payload)
        except Exception as exc:
            self.stats.corrupt += 1
            self.stats.misses += 1
            obs.inc("checkpoint.corrupt")
            obs.inc("checkpoint.misses")
            logger.warning("corrupt checkpoint %s (%s); recomputing", key, exc)
            return None
        self.stats.hits += 1
        obs.inc("checkpoint.hits")
        obs.inc("checkpoint.bytes_read", len(blob))
        logger.debug("hit %s", key)
        return obj

    def fetch(self, key: str, compute, *args, **kwargs) -> Any:
        """Load ``key`` or compute-and-save it (the one-stop accessor).

        In ``claims`` mode, concurrent fetchers of the same key elect a
        single computer; the rest wait for its entry.
        """
        if self.claims and self.resume:
            return self._fetch_claimed(key, compute, *args, **kwargs)
        cached = self.load(key)
        if cached is not None:
            return cached
        obj = compute(*args, **kwargs)
        self.save(key, obj)
        return obj

    # ------------------------------------------------------------------
    # claim protocol (cross-process duplicate-work suppression)
    # ------------------------------------------------------------------
    def claim_path(self, key: str) -> Path:
        return self.root / f"{key}{_CLAIM_SUFFIX}"

    def try_claim(self, key: str) -> bool:
        """Atomically acquire the right to compute ``key``.

        Returns True iff this process now holds the claim.  A claim
        whose recorded owner process is gone, or that is older than
        ``claim_stale_s``, is broken so a worker that died
        mid-computation can never wedge the fleet.  (Without the
        liveness check a chaos-killed worker's orphaned claim stalls
        its retry for the full ``claim_stale_s`` — 10 minutes at the
        default.)
        """
        path = self.claim_path(key)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                return False  # released between open and stat; caller re-loads
            if age > self.claim_stale_s or self._claim_owner_dead(path):
                self.stats.claims_broken += 1
                obs.inc("checkpoint.claims_broken")
                logger.warning("breaking orphaned claim on %s (%.0fs old)", key, age)
                try:
                    os.unlink(path)
                except OSError:
                    pass  # another waiter broke it first
            return False
        except OSError:
            return False  # unwritable store: claimless fallback still works
        with os.fdopen(fd, "w") as handle:
            handle.write(f"{os.getpid()} {socket.gethostname()}\n")
        self.stats.claims_won += 1
        obs.inc("checkpoint.claims_won")
        return True

    @staticmethod
    def _claim_owner_dead(path: Path) -> bool:
        """True iff the claim records a same-host pid that no longer exists.

        A store directory can be shared or restored across hosts, so
        the claim records ``pid hostname`` and the pid liveness probe
        only applies to claims from *this* host — a foreign host's pid
        space says nothing about ours.  Foreign, unreadable, or legacy
        pid-only-from-elsewhere claims fall back to the age rule.
        """
        try:
            fields = path.read_text().split()
            pid = int(fields[0])
        except (OSError, ValueError, IndexError):
            return False
        # a second field is the owner's hostname (pre-fleet claims have
        # none and are always local)
        if len(fields) > 1 and fields[1] != socket.gethostname():
            return False
        if pid <= 0 or pid == os.getpid():
            return False
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            return False  # alive but unsignalable (EPERM), or exotic failure
        return False

    def release(self, key: str) -> None:
        try:
            os.unlink(self.claim_path(key))
        except OSError:
            pass

    def _fetch_claimed(self, key: str, compute, *args, **kwargs) -> Any:
        deadline = time.monotonic() + self.claim_stale_s
        waited = False
        check_entry = True  # poll existence while waiting; load only then
        while True:
            if check_entry:
                cached = self.load(key)
                if cached is not None:
                    return cached
            if self.try_claim(key):
                try:
                    obj = compute(*args, **kwargs)
                    self.save(key, obj)
                finally:
                    self.release(key)
                return obj
            # another process holds the claim: wait for its entry, but
            # never past the deadline — a duplicate computation is
            # deterministic and atomic-replace-safe, a deadlock is not.
            if not waited:
                waited = True
                self.stats.claims_waited += 1
                obs.inc("checkpoint.claims_waited")
                logger.debug("waiting on claim for %s", key)
            if time.monotonic() >= deadline:
                logger.warning("claim wait on %s expired; computing locally", key)
                obj = compute(*args, **kwargs)
                self.save(key, obj)
                return obj
            time.sleep(self.claim_poll_s)
            check_entry = key in self

    # ------------------------------------------------------------------
    def _atomic_write(self, path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
