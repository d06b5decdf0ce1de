"""Host speed, diagnostics and load hygiene for one benchmark process.

Import this module only after the thread-pool variables are pinned: it
imports NumPy.
"""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import socket
import sys
import threading
import time

import numpy as np


def steal_s() -> float:
    """Cumulative steal time of the host's CPUs, seconds (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


#: what :func:`reference_ms` reads on this host when it runs at full
#: speed (2-vCPU Xeon VM); times are scaled to a host this fast
REFERENCE_NOMINAL_MS = 12.0

_rng = np.random.default_rng(0)
_KEYS = [tuple(int(v) for v in row) for row in _rng.integers(0, 64, (20_000, 3))]
_TABLE = {key: index for index, key in enumerate(_KEYS)}
_LOOKUPS = [_KEYS[i] for i in _rng.integers(0, len(_KEYS), 40_000)]
_SMALL = _rng.random(100_000)
_SMALL_INDEX = _rng.integers(0, 100_000, 100_000)
_LARGE = _rng.random(1_000_000)
_LARGE_INDEX = _rng.integers(0, 1_000_000, 100_000)


def reference_ms() -> float:
    """Fastest of three timings of a fixed miniature of the program's
    work, ms.

    Like the program it mixes interpreted arithmetic, tuple-keyed dict
    lookups over a table larger than the L2 cache (the scheme tables),
    and NumPy gathers and sorts, one of them over 8 MB (DTA).  The
    minimum drops one-off interruptions and keeps what persists: the
    host's current speed.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(50_000):
            total += i * i & 0xFF
        for key in _LOOKUPS:
            total += _TABLE[key]
        np.maximum(_SMALL[_SMALL_INDEX], _SMALL).sort()
        np.maximum(_LARGE[_LARGE_INDEX], _SMALL).sort()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def speed_factor(ref_before_ms: float, ref_after_ms: float) -> float:
    """Multiplier from host seconds to seconds on a nominal-speed host.

    The reference is timed just before and just after the work, so a
    host that runs slower for a while slows both alike.
    """
    return 2.0 * REFERENCE_NOMINAL_MS / (ref_before_ms + ref_after_ms)


def phase_speed(refs_ms) -> float:
    """Multiplier from host seconds of a whole timed phase to nominal ones.

    ``refs_ms`` are every reference reading taken in the phase, between
    rounds and at laps within them.  A passing slowdown can skew the two
    readings around one segment but hardly their mean over the phase, and
    the mean also tracks a phase whose rounds load every vCPU (``fleet``),
    where the one-thread reading beside a single round does not.
    """
    return REFERENCE_NOMINAL_MS / (sum(refs_ms) / len(refs_ms))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rss_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the process exited between listing and reading
    return 0


def _descendants(root: int) -> list[str]:
    parents: dict[str, list[str]] = {}
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as handle:
                ppid = handle.read().rsplit(")", 1)[1].split()[1]
        except OSError:
            continue
        parents.setdefault(ppid, []).append(pid)
    found, frontier = [], [str(root)]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


class TreeRssSampler:
    """Peak of this process's RSS plus all its descendants', sampled.

    Used where the workload forks workers (``fleet``), whose memory
    ``ru_maxrss`` of the coordinator does not include.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            total = _rss_kb(str(me)) + sum(_rss_kb(pid) for pid in _descendants(me))
            self.peak_kb = max(self.peak_kb, total)
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "TreeRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def _alive(pid: str) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started, and wait until each has ended.

    Shared-memory segments start multiprocessing's resource tracker, a
    child that would otherwise outlive this process by a moment; it is
    stopped first, the way multiprocessing itself would at exit.  Any
    other descendant still running gets SIGTERM, then SIGKILL after
    ``grace_s``.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    me = os.getpid()
    pending = _descendants(me)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in pending:
            with contextlib.suppress(OSError):
                os.kill(int(pid), sig)
        deadline = time.monotonic() + grace_s
        while pending and time.monotonic() < deadline:
            _reap()
            pending = [pid for pid in _descendants(me) if _alive(pid)]
            if pending:
                time.sleep(0.02)
    _reap()


def _reap() -> None:
    """Collect the exit status of every child that has ended."""
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


class _NoNetworkSocket(socket.socket):
    def __init__(self, family=-1, type=-1, proto=-1, fileno=None):
        if fileno is None and family in (-1, socket.AF_INET, socket.AF_INET6):
            raise OSError("benchmark workloads open no network sockets")
        super().__init__(family, type, proto, fileno)


def forbid_network_sockets() -> None:
    """Make any IPv4/IPv6 socket creation in this process (and forks) fail."""
    socket.socket = _NoNetworkSocket
