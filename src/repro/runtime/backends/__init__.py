"""Executor backends: where a batch of experiments runs.

Two implementations of one contract (:class:`ExecutorBackend`):

========== ============================================================
``inproc``   serial, this process — the bit-identical reference
``procpool`` local ``ProcessPoolExecutor`` fan-out (crash containment)
========== ============================================================

``--jobs`` decides between them: :func:`backend_for` is the one place
the CLI turns a job count into a backend.
"""

from __future__ import annotations

from repro.runtime.backends.base import ExecutorBackend
from repro.runtime.backends.inproc import InprocBackend
from repro.runtime.backends.procpool import ProcpoolBackend


def backend_for(jobs: int) -> ExecutorBackend:
    """The serial reference for one job, the process pool for more."""
    return InprocBackend() if jobs == 1 else ProcpoolBackend()


__all__ = [
    "ExecutorBackend",
    "InprocBackend",
    "ProcpoolBackend",
    "backend_for",
]
