"""Chaos harness: deliberate fault injection for the runtime itself.

A resilience layer that is never exercised is a liability, so this
module makes the failure modes injectable: corrupt or truncate stored
checkpoints, abort a store write partway through (a simulated crash or
full disk), and raise arbitrary exceptions inside experiment bodies.
Tests — and the CLI's ``--chaos-fail`` self-test flag — use these to
prove the executor isolates faults and the store degrades to
recomputation instead of assuming it.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.log import get_logger

logger = get_logger("chaos")


class InjectedFailure(RuntimeError):
    """The distinguishable exception raised by injected faults."""


# ----------------------------------------------------------------------
# experiment-body faults
# ----------------------------------------------------------------------

def failing_run(message: str = "injected failure", exc_type: type[BaseException] = InjectedFailure) -> Callable:
    """An experiment body that always raises."""

    def run(ctx):
        raise exc_type(message)

    return run


def flaky_run(fn: Callable, failures: int, message: str = "injected transient failure") -> Callable:
    """Delegate to ``fn`` after raising on the first ``failures`` calls.

    Exercises the executor's retry path deterministically.
    """
    state = {"remaining": failures}

    def run(ctx):
        if state["remaining"] > 0:
            state["remaining"] -= 1
            raise InjectedFailure(message)
        return fn(ctx)

    return run


def hanging_run(seconds: float = 3600.0) -> Callable:
    """An experiment body that sleeps past any reasonable timeout."""

    def run(ctx):
        time.sleep(seconds)
        raise AssertionError("hanging_run outlived its watchdog")

    return run


def killed_run(exit_code: int = 86) -> Callable:
    """An experiment body that dies like a SIGKILL'd / OOM'd process.

    ``os._exit`` skips every Python-level cleanup, so from the parallel
    orchestrator's point of view the worker simply vanishes — the
    hardest failure the pool must contain.  Never use in a serial run:
    it takes the whole interpreter with it (which is the point).
    """

    def run(ctx):
        os._exit(exit_code)

    return run


def slow_run(seconds: float, fn: Callable | None = None) -> Callable:
    """Delay ``fn`` (or a trivial success) by ``seconds``.

    Used to prove the parallel watchdog measures from *worker start*:
    N slow bodies queued on one worker each stay within a per-run
    budget even though the last one finishes N x ``seconds`` after
    submission.
    """

    def run(ctx):
        time.sleep(seconds)
        if fn is not None:
            return fn(ctx)
        from repro.experiments.report import ExperimentResult

        return ExperimentResult("slow", f"slept {seconds:g}s")

    return run


def chaos_resolve(fail_ids: set[str], base: Callable[[str], Callable]) -> Callable[[str], Callable]:
    """A registry resolver that swaps listed ids for failing bodies.

    Backs the CLI's ``--chaos-fail`` flag: the listed experiments raise
    :class:`InjectedFailure` instead of running, letting an operator
    watch the supervisor contain the blast radius end to end.
    """

    def resolve(experiment_id: str) -> Callable:
        if experiment_id in fail_ids:
            logger.info("chaos: injecting failure into %s", experiment_id)
            return failing_run(f"chaos-injected failure in {experiment_id}")
        return base(experiment_id)

    return resolve


# ----------------------------------------------------------------------
# checkpoint-store faults
# ----------------------------------------------------------------------

def corrupt_entry(store: CheckpointStore, key: str, mode: str = "flip") -> None:
    """Damage a stored checkpoint in place.

    ``flip``     invert a payload byte (checksum must catch it);
    ``truncate`` keep only the first half (torn file);
    ``garbage``  replace the file with non-checkpoint bytes.
    """
    path = store.path(key)
    blob = path.read_bytes()
    if mode == "flip":
        index = len(blob) - 1 - len(blob) // 4
        blob = blob[:index] + bytes([blob[index] ^ 0xFF]) + blob[index + 1:]
    elif mode == "truncate":
        blob = blob[: len(blob) // 2]
    elif mode == "garbage":
        blob = b"not a checkpoint at all\n" * 4
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    path.write_bytes(blob)
    logger.info("chaos: corrupted %s (%s)", key, mode)


def abort_writes(store: CheckpointStore, fraction: float = 0.5) -> None:
    """Make every subsequent write on ``store`` die partway through.

    Simulates a crash / full disk during persistence: a fraction of the
    bytes lands in the temp file, then an ``OSError`` fires.  Because
    writes are atomic, no torn entry may ever become visible under the
    final key — the store just records a write error and the run keeps
    its in-memory artefact.
    """
    original = type(store)._atomic_write

    def dying_write(path, data: bytes) -> None:
        partial = data[: max(1, int(len(data) * fraction))]
        original(store, path.with_suffix(".crashed"), partial)
        raise OSError("chaos: write aborted mid-flight")

    store._atomic_write = dying_write  # type: ignore[method-assign]
    logger.info("chaos: store writes will abort at %.0f%%", fraction * 100)
