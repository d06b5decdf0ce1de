"""Shared-memory hand-off of chip populations to fleet workers.

Before the batched kernel, every fleet worker received its chips by
pickling them through the process boundary (or by recomputing them
through the checkpoint store).  With populations the natural unit is a
handful of large read-only arrays — the ``(num_chips, num_nodes)``
delay/ΔVth matrices of each (kind, corner, buffered) group — which
belong in :mod:`multiprocessing.shared_memory`: the parent publishes
each array into a named segment once, workers attach zero-copy views,
and only a small picklable :class:`ShmCatalog` of (segment name, shape,
dtype) travels inside the :class:`~repro.runtime.parallel.WorkerSpec`.
Instruction traces are not published: a worker that builds an error
trace needs the trace itself, not only its encoded input stream.

Failure philosophy: the hand-off is strictly an accelerator.  Workers
that cannot attach a segment (remote machines, exhausted /dev/shm,
racing cleanup) silently fall back to computing the artefact themselves
through the claimed checkpoint store — nothing about correctness ever
depends on shared memory being available.

Lifecycle: the parent owns the segments and unlinks them when the fleet
run finishes (``finally``-guarded).  Child processes must *attach
without registering* with the resource tracker — on Python 3.10–3.12 a
child's tracker would otherwise unlink the parent's segments when the
child exits, tearing the arrays out from under its siblings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

import numpy as np

from repro import obs
from repro.runtime.log import get_logger

logger = get_logger("shm")


@dataclass(frozen=True)
class ArraySpec:
    """Picklable description of one published array."""

    segment: str  # shared-memory segment name
    shape: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class ShmCatalog:
    """Picklable index of everything the parent published.

    ``arrays`` maps string keys to segment specs; ``meta`` carries small
    plain-value entries (population seed lists and the like) that are
    cheaper to ship inline than through a segment.
    """

    arrays: tuple[tuple[str, ArraySpec], ...] = ()
    meta: tuple[tuple[str, Any], ...] = ()

    def __len__(self) -> int:
        return len(self.arrays)


class ShmPublisher:
    """Parent-side writer: copy arrays into named segments, emit a catalog.

    The publisher owns its segments; call :meth:`unlink` (idempotent)
    when every consumer is done.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self._prefix = prefix
        self._segments: list[shared_memory.SharedMemory] = []
        self._arrays: list[tuple[str, ArraySpec]] = []
        self._meta: list[tuple[str, Any]] = []
        self._counter = 0

    def put(self, key: str, array: np.ndarray) -> None:
        """Publish one array under ``key`` (copies into a fresh segment)."""
        array = np.ascontiguousarray(array)
        name = f"{self._prefix}-{os.getpid()}-{self._counter}"
        self._counter += 1
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes), name=name
        )
        self._segments.append(segment)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        self._arrays.append(
            (key, ArraySpec(segment=name, shape=array.shape, dtype=str(array.dtype)))
        )
        obs.inc("shm.arrays_published")
        obs.inc("shm.bytes_published", array.nbytes)

    def put_meta(self, key: str, value: Any) -> None:
        """Attach one small picklable metadata entry to the catalog."""
        self._meta.append((key, value))

    def catalog(self) -> ShmCatalog:
        return ShmCatalog(arrays=tuple(self._arrays), meta=tuple(self._meta))

    def unlink(self) -> None:
        """Destroy every published segment (idempotent, error-tolerant)."""
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):
                pass  # already gone (double unlink, host cleanup)


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    On Python 3.10–3.12, ``SharedMemory(name=...)`` registers the segment
    with the resource tracker, which unlinks it on process exit — wrong
    for a child attaching to its parent's segment.  Python 3.13 grew
    ``track=False`` for exactly this; on older versions, *suppress* the
    registration instead of unregistering afterwards: forked workers
    share the parent's tracker process and its cache is a set, so a
    child's register/unregister pair would net-delete the parent's own
    entry and its final ``unlink()`` would make the tracker print a
    spurious KeyError traceback.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class ShmReader:
    """Worker-side view of a :class:`ShmCatalog`.

    ``get`` returns a read-only numpy view into the parent's segment, or
    ``None`` when the segment cannot be attached (remote machine, the
    parent already cleaned up) — callers must treat ``None`` as "compute
    it yourself".  Attached segments are cached and kept referenced for
    the reader's lifetime so views never outlive their buffer.
    """

    def __init__(self, catalog: ShmCatalog) -> None:
        self._specs = dict(catalog.arrays)
        self.meta = dict(catalog.meta)
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._views: dict[str, np.ndarray] = {}
        self._failed: set[str] = set()

    def __contains__(self, key: str) -> bool:
        return key in self._specs

    def get(self, key: str) -> np.ndarray | None:
        if key in self._views:
            return self._views[key]
        spec = self._specs.get(key)
        if spec is None or key in self._failed:
            return None
        try:
            segment = _attach_untracked(spec.segment)
        except (FileNotFoundError, OSError, ValueError) as exc:
            # No /dev/shm segment here (remote worker, parent gone):
            # degrade to local computation, once, quietly.
            self._failed.add(key)
            logger.debug("shm attach failed for %s: %s", key, exc)
            obs.inc("shm.attach_failures")
            return None
        self._segments[spec.segment] = segment
        view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
        view.flags.writeable = False
        self._views[key] = view
        obs.inc("shm.arrays_attached")
        return view

    def close(self) -> None:
        """Drop all views and detach (never unlinks — the parent owns those)."""
        self._views.clear()
        segments, self._segments = self._segments, {}
        for segment in segments.values():
            try:
                segment.close()
            except (BufferError, OSError):
                pass
