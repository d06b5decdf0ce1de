"""Supervised, fault-isolated experiment execution.

The paper's pipeline — detect an error, contain it, replay past it —
applied to our own harness: each experiment runs under a supervisor
that converts exceptions into structured :class:`FailureRecord`s, so
one crashing figure can never abort the other twenty-one.  A run of
many experiments always completes, reports a pass/fail summary, and
signals failure through the exit code only at the end.

Timeouts use a watchdog thread: the experiment body runs in a daemon
worker and the supervisor abandons it when the wall-clock budget
expires.  Python cannot forcibly kill a thread, so a timed-out body may
keep computing in the background until process exit — the supervisor
simply stops waiting, records a timeout failure, and moves on (graceful
partial-result reporting rather than a hang).
"""

from __future__ import annotations

import threading
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.experiments.report import ExperimentResult
from repro.runtime.checkpoint import config_fingerprint
from repro.runtime.log import get_logger

logger = get_logger("executor")


class ExperimentTimeout(RuntimeError):
    """Raised by the supervisor when a run exceeds its wall-clock budget."""


@dataclass
class FailureRecord:
    """Everything needed to triage one failed experiment run."""

    experiment_id: str
    kind: str  # "exception" | "timeout" | "crash"
    error_type: str
    message: str
    traceback: str
    config_fingerprint: str
    elapsed_s: float
    attempts: int = 1
    #: flight-recorder dump: the last few structured events before a
    #: crash blame ("what was the fleet doing").  Deliberately
    #: excluded from rendered reports — events are schedule-dependent
    #: and reports must stay bit-identical across backends.
    context: tuple[str, ...] = ()

    def summary(self) -> str:
        return f"{self.experiment_id}: {self.error_type}: {self.message}"


@dataclass
class RunOutcome:
    """Result of one supervised experiment: a result XOR a failure."""

    experiment_id: str
    result: ExperimentResult | None
    failure: FailureRecord | None
    elapsed_s: float
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class RunReport:
    """Aggregate of a multi-experiment run, in submission order."""

    outcomes: list[RunOutcome] = field(default_factory=list)

    @property
    def results(self) -> list[ExperimentResult]:
        return [o.result for o in self.outcomes if o.result is not None]

    @property
    def failures(self) -> list[FailureRecord]:
        return [o.failure for o in self.outcomes if o.failure is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def summary_text(self) -> str:
        """The end-of-run pass/fail table printed by the CLI."""
        passed = len(self.outcomes) - len(self.failures)
        lines = [f"== run summary: {passed}/{len(self.outcomes)} experiments ok =="]
        width = max((len(o.experiment_id) for o in self.outcomes), default=0)
        for outcome in self.outcomes:
            if outcome.ok:
                status = "ok"
            elif outcome.failure is not None and outcome.failure.kind == "timeout":
                status = "TIMEOUT"
            elif outcome.failure is not None and outcome.failure.kind == "crash":
                status = "CRASH"
            else:
                status = "FAIL"
            line = (
                f"  {outcome.experiment_id.ljust(width)}  {status:<7}"
                f"  {outcome.elapsed_s:7.1f}s"
            )
            if outcome.attempts > 1:
                line += f"  ({outcome.attempts} attempts)"
            if outcome.failure is not None:
                line += f"  {outcome.failure.error_type}: {outcome.failure.message}"
            lines.append(line)
        return "\n".join(lines)


def _call_with_timeout(fn: Callable, ctx, timeout_s: float | None):
    if timeout_s is None:
        return fn(ctx)
    outcome: dict = {}
    done = threading.Event()

    def body() -> None:
        try:
            outcome["result"] = fn(ctx)
        except BaseException as exc:  # re-raised in the supervisor
            outcome["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(target=body, name="experiment-body", daemon=True)
    worker.start()
    if not done.wait(timeout_s):
        raise ExperimentTimeout(
            f"exceeded {timeout_s:g}s wall-clock budget (body abandoned)"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


def run_supervised(
    experiment_id: str,
    fn: Callable,
    ctx,
    retries: int = 0,
    timeout_s: float | None = None,
) -> RunOutcome:
    """Run one experiment, converting any exception into a FailureRecord.

    ``KeyboardInterrupt`` and ``SystemExit`` are deliberately NOT
    contained — the user aborting the whole run must still work.
    """
    fingerprint = config_fingerprint(getattr(ctx, "config", None))
    start = time.monotonic()
    failure: FailureRecord | None = None
    attempts = 0
    with obs.span("experiment.run", experiment=experiment_id):
        for attempt in range(1, retries + 2):
            attempts = attempt
            obs.inc("experiment.attempts")
            if attempt > 1:
                obs.inc("experiment.retries")
            try:
                result = _call_with_timeout(fn, ctx, timeout_s)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:
                elapsed = time.monotonic() - start
                kind = "timeout" if isinstance(exc, ExperimentTimeout) else "exception"
                obs.inc("experiment.timeouts" if kind == "timeout"
                        else "experiment.errors")
                failure = FailureRecord(
                    experiment_id=experiment_id,
                    kind=kind,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback="".join(
                        traceback_module.format_exception(
                            type(exc), exc, exc.__traceback__
                        )
                    ),
                    config_fingerprint=fingerprint,
                    elapsed_s=elapsed,
                    attempts=attempt,
                )
                logger.warning(
                    "%s failed (attempt %d/%d): %s: %s",
                    experiment_id, attempt, retries + 1,
                    failure.error_type, failure.message,
                )
            else:
                elapsed = time.monotonic() - start
                obs.inc("experiment.ok")
                obs.inc("experiment.outcome", experiment=experiment_id, status="ok")
                obs.observe("experiment.duration_s", elapsed)
                logger.info(
                    "%s ok in %.1fs (attempt %d)", experiment_id, elapsed, attempt
                )
                return RunOutcome(
                    experiment_id, result, None, elapsed, attempts=attempt
                )
    assert failure is not None
    obs.inc("experiment.failed")
    obs.inc("experiment.outcome", experiment=experiment_id, status=failure.kind)
    obs.observe("experiment.duration_s", time.monotonic() - start)
    return RunOutcome(
        experiment_id, None, failure, time.monotonic() - start, attempts=attempts
    )


def run_many(
    experiment_ids: Sequence[str],
    ctx,
    retries: int = 0,
    timeout_s: float | None = None,
    resolve: Callable[[str], Callable] | None = None,
    on_outcome: Callable[[RunOutcome], None] | None = None,
) -> RunReport:
    """Supervise a batch; every experiment runs no matter who crashes.

    ``resolve`` maps an id to its run callable (defaults to the
    registry); the CLI uses it to interpose chaos wrappers.
    ``on_outcome`` is invoked after each experiment for incremental
    reporting.
    """
    if resolve is None:
        from repro.experiments.registry import get_experiment as resolve
    report = RunReport()
    for experiment_id in experiment_ids:
        outcome = run_supervised(
            experiment_id, resolve(experiment_id), ctx,
            retries=retries, timeout_s=timeout_s,
        )
        report.outcomes.append(outcome)
        if on_outcome is not None:
            on_outcome(outcome)
    return report
